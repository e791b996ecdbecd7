"""A ratchet on the control surface: parameter counts and CLI options
can shrink, not silently regrow.  The limits are today's numbers — lower
them when a change earns it.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.genome.synthetic import ReadSimulator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The keyword entry points: everything a run can be told, spelled out
#: once.  Below them a run travels as a ``PipelineSpec``.
ENTRY_POINTS = {"run_pipeline": 17, "run_placed_pipeline": 24}
#: Where the spec is interpreted, nothing re-lists its fields.
SPEC_MODULES = ("core/pipelines.py", "cluster/multiserver.py")
SPEC_MODULE_LIMIT = 12
#: Everywhere else: ``SuperchunkMergeNode.__init__``'s 12.
LIMIT = 12
CLI_OPTION_LIMIT = 66
RUN_PLACED_PIPELINE_LINES = 101
#: ``Session(graph, queue_sample_interval)``: what is chained and what
#: the write-behind lane carries is read off the graph, never passed in.
SESSION_INIT_PARAMETERS = 3
#: ``os.environ`` reads under ``src/repro`` (the ledger's two chaos
#: hooks): no behaviour hides behind an environment variable.
ENVIRON_READS = 2


def _functions():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                count = (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                         + (a.vararg is not None) + (a.kwarg is not None))
                yield path.relative_to(SRC).as_posix(), node, count


def test_parameter_counts():
    over = []
    for module, node, count in _functions():
        limit = ENTRY_POINTS.get(node.name, SPEC_MODULE_LIMIT) \
            if module in SPEC_MODULES else LIMIT
        if count > limit:
            over.append(f"{module}:{node.lineno} {node.name} takes {count} "
                        f"parameters (limit {limit})")
    assert not over, "\n".join(over)


def test_no_switch_for_the_thread_model():
    [count] = [c for m, n, c in _functions()
               if m == "dataflow/session.py" and n.name == "__init__"
               and n.args.args[1].arg == "graph"]
    assert count <= SESSION_INIT_PARAMETERS
    reads = sum(path.read_text().count("os.environ")
                for path in SRC.rglob("*.py"))
    assert reads <= ENVIRON_READS


def test_run_placed_pipeline_stays_four_steps():
    [node] = [n for m, n, _ in _functions()
              if m == "cluster/multiserver.py"
              and n.name == "run_placed_pipeline"]
    assert node.end_lineno - node.lineno + 1 <= RUN_PLACED_PIPELINE_LINES


def _leaf_parsers(parser, prefix=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, prefix + (name,))


def test_cli_option_count():
    """Exposed (subcommand, option) pairs, ``-h`` aside."""
    pairs = [
        (command, action.option_strings[0])
        for command, parser in _leaf_parsers(build_parser())
        for action in parser._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
    ]
    assert len(pairs) <= CLI_OPTION_LIMIT, sorted(pairs)


#: One command runs stages (``pipeline --stages X``, one stage included)
#: and one function runs placements (``run_placed_pipeline``): no
#: single-stage subcommand, no placed-alignment wrapper.
LEAF_SUBCOMMANDS = {
    "import-fastq", "import-sam", "export", "rechunk", "pipeline",
    "cluster run", "cluster broker", "cluster worker",
    "runs list", "runs show", "runs verify", "stats",
}
PLACED_ALIGN_WRAPPER_NAMES = (
    "run_multi_server_alignment", "MultiServerOutcome", "ServerOutcome",
)


def _public_occurrences(names) -> "list[str]":
    """``path:line`` for every use of ``names`` in the library, the
    examples or the benchmarks."""
    regex = re.compile(rf"\b({'|'.join(names)})\b")
    return [
        f"{path.relative_to(ROOT)}:{n}"
        for tree in ("src", "examples", "benchmarks")
        for path in sorted((ROOT / tree).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]


def test_one_command_runs_stages():
    assert {command for command, _ in _leaf_parsers(build_parser())} \
        == LEAF_SUBCOMMANDS
    found = _public_occurrences(PLACED_ALIGN_WRAPPER_NAMES)
    assert not found, found


def test_only_the_aligner_dispatches():
    """``.run_chunk(`` call sites under ``core/``: the two aligner nodes.
    Sort, dupmark, filter and varcall were measured faster on their node
    threads; a second dispatching stage needs a measurement to come
    back."""
    sites = {
        (path.name, top.name)
        for path in sorted((SRC / "core").glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.ClassDef, ast.FunctionDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run_chunk"
    }
    assert sites == {("ops.py", "AlignerNode"),
                     ("ops.py", "PairedAlignerNode")}


def test_one_read_generator():
    """``ReadSimulator`` has one implementation and no switch for it: the
    array program, with the signature the per-read one had.  The per-read
    code lives in ``tests/read_sim_oracle.py`` only."""
    assert str(inspect.signature(ReadSimulator.simulate)) == (
        "(self, num_reads: 'int', sample_name: 'str' = 'sample') -> "
        "'tuple[ReadBatch, list[ReadOrigin]]'"
    )
    assert [f.name for f in dataclasses.fields(ReadSimulator)] == [
        "reference", "read_length", "error_model", "duplicate_fraction",
        "paired", "insert_size_mean", "insert_size_sd", "seed",
    ]
    source = (SRC / "genome" / "synthetic.py").read_text()
    for gone in ("_sequence_read(", "_emit_fragment(", "vectorized"):
        assert gone not in source


#: A stage is one ``subgraphs.STAGES`` record with one ``(spec, site)``
#: builder: the per-stage tables, the keyword builders beside it and the
#: second backend lifecycle are gone, and must not grow back.
REMOVED_NAMES = (
    "STAGE_ORDER", "STAGE_READS", "ONE_TO_ONE_STAGES", "STAGE_BUILDERS",
    "PIPELINE_STAGES", "build_align_graph", "build_align_stage",
    "build_sort_graph", "build_dupmark_graph", "build_varcall_graph",
    "build_filter_stage", "build_standalone_graph", "AlignGraph",
    "PipelineBuilder", "attach_stage_journal", "owns_backend",
    "validate_stages", "partition_manifest",
)


def _occurrences(pattern: str) -> "list[str]":
    """``path:line: match`` for every match of ``pattern`` under
    ``src/repro``."""
    regex = re.compile(pattern)
    return [
        f"{path.relative_to(SRC)}:{n}: {match.group(0)}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for match in regex.finditer(line)
    ]


def test_one_stage_table():
    found = _occurrences(rf"\b({'|'.join(REMOVED_NAMES)})\b")
    assert not found, "\n".join(found)


#: Queue and edge capacities are constants (each builder's, and
#: ``placement.EDGE_CAPACITY``): the depth-driven tuners, their sidecar
#: and the override maps are gone, and must not grow back.
TUNER_NAMES = (
    "suggest_queue_capacities", "suggest_edge_capacities",
    "load_tuned_capacities", "save_tuned_capacities", "TUNE_SIDECAR_NAME",
    "persona-tune", "autotune", "queue_capacities", "edge_capacities",
)


def test_no_capacity_tuner():
    found = _occurrences(rf"\b({'|'.join(TUNER_NAMES)})\b|\bresize\(")
    assert not found, "\n".join(found)


#: Process-backend payloads go down the pipe and nowhere else: the
#: worker-payload shm plane (adoption, resolution, array slabs, the
#: backend's pool) is gone, and must not grow back.
PAYLOAD_PLANE_NAMES = (
    "adopt_payload", "resolve_payload", "put_array", "__shm_payload__",
    "_shm_pool",
)


def test_no_worker_payload_plane():
    found = _occurrences(rf"\b({'|'.join(PAYLOAD_PLANE_NAMES)})\b")
    assert not found, "\n".join(found)


#: The broker's shm plane has one mechanism, adoption of publisher
#: segments: the slab allocator that copied inline payloads into pooled
#: memory and the disk backlog spill are gone, and must not grow back.
BROKER_POOL_NAMES = (
    "put_bytes", "restage_ref", "read_ref", "_SpilledSeg",
    "spill_watermark", "shm_slab_bytes", "shm_max_bytes", "spill-dir",
)
#: The broker's modules take no spill directory either.
BROKER_POOL_MODULES = ("cluster/broker.py", "cluster/multiserver.py")


def test_broker_pool_is_adoption_only():
    found = _occurrences(rf"\b({'|'.join(BROKER_POOL_NAMES)})\b")
    found += [
        f"{module}:{n}"
        for module in BROKER_POOL_MODULES
        for n, line in enumerate((SRC / module).read_text().splitlines(), 1)
        if re.search(r"\bspill_dir\b", line)
    ]
    assert not found, "\n".join(found)


#: The broker plane has one publish operation (``publish(..., ack=)``):
#: the second publish-and-ack op, the packed work-item form, the
#: transport codec and the per-broker timing knobs are gone, and must
#: not grow back.
ONE_PUBLISH_NAMES = (
    "publish_ack", "put_with_ack", "wire_codec", "pack_frames",
    "unpack_frames", "encode_frames", "backoff_base", "deadline_factor",
)


def test_broker_has_one_publish_op():
    found = _occurrences(rf"\b({'|'.join(ONE_PUBLISH_NAMES)})\b"
                         r"|\b(encode|decode)_work_item\(")
    assert not found, "\n".join(found)
    ops = re.findall(r'op == "(\w+)"',
                     (SRC / "cluster" / "broker.py").read_text())
    assert ops == ["hello", "publish", "pull", "ack", "attach", "done",
                   "abort", "admit", "stats"]


#: Every TCP edge is a socket copy: the broker's same-host shared-memory
#: handoff (segment refs, the adopting pool and its leases, the
#: handshake op, its switch and payload reaper) is gone, and must not
#: grow back.  Nothing under ``src/repro`` touches ``/dev/shm``.
SHM_PLANE_NAMES = (
    "ShmRef", "BufferPool", "PooledView", "shm_verify", "broker_shm",
    "payload_reaper", "shared_memory",
)


def test_no_shared_memory_plane():
    assert not (SRC / "dataflow" / "shm.py").exists()
    found = _occurrences(rf"\b({'|'.join(SHM_PLANE_NAMES)})\b|/dev/shm")
    assert not found, "\n".join(found)


#: A work item has one shape on every edge: alignment results are one
#: of its columns, and every edge frames raw.  The second results slot
#: and the per-transport codec choice are gone, and must not grow back.
ONE_SHAPE_NAMES = (
    "same_host", "peer_is_same_host", "EDGE_CODEC_LEVEL",
    "RAW_EDGE_CODEC_LEVEL", "edge_item_serializer", "_item_results",
)


def test_work_item_has_one_shape():
    from repro.core.ops import ChunkWorkItem

    assert "results" not in {f.name for f in
                             dataclasses.fields(ChunkWorkItem)}
    found = _occurrences(rf"\b({'|'.join(ONE_SHAPE_NAMES)})\b")
    assert not found, "\n".join(found)


#: The compute backend is named once, by ``backend=``/``workers=`` on the
#: entry point: no batch-size knob or its byte estimator, no backend
#: fields on the graph config, no adapter for a raw thread pool.
BACKEND_KNOB_NAMES = ("batch_bytes", "payload_nbytes", "as_backend",
                      "_apply_backend_choice")
#: One in-process backend (serial) and one multi-core one (process):
#: under the GIL a thread pool behind the backend API bought nothing.
REMOVED_BACKEND_NAMES = ("ThreadBackend",)


def test_backend_is_named_once():
    from repro.core.ops import AlignerNode
    from repro.core.pipelines import PipelineSpec
    from repro.core.subgraphs import AlignGraphConfig
    from repro.dataflow.backends import BACKEND_CHOICES

    assert BACKEND_CHOICES == ("serial", "process")

    config_fields = {f.name for f in dataclasses.fields(AlignGraphConfig)}
    assert not config_fields & {"backend", "executor_threads", "batch_size"}
    with pytest.raises(TypeError):
        AlignGraphConfig(backend="process")
    assert "batch_size" not in {f.name for f in dataclasses.fields(
        PipelineSpec)}
    found = _occurrences(
        rf"\b({'|'.join(BACKEND_KNOB_NAMES + REMOVED_BACKEND_NAMES)})\b")
    assert not found, "\n".join(found)
    assert not hasattr(AlignerNode, "executor_handle")


#: §4.3's executor resource is the run's ``Backend``: the thread-pool
#: executor family and the second paired-BWA node built on it are gone,
#: and must not grow back.
REMOVED_EXECUTOR_NAMES = (
    "Executor", "PartitionedExecutor", "ChunkCompletion", "ExecutorStats",
    "BwaPairedAlignerNode", "make_bwa_paired_executor",
)


def test_one_executor():
    assert not (SRC / "dataflow" / "executor.py").exists()
    assert not (SRC / "core" / "paired_bwa.py").exists()
    found = _public_occurrences(REMOVED_EXECUTOR_NAMES)
    assert not found, "\n".join(found)


def _run_imports(tree):
    """Every import statement in ``tree``, function-level ones included,
    except those under ``if TYPE_CHECKING:`` (they never run)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
              and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _unreached_modules() -> "set[str]":
    """``src/repro`` modules (package ``__init__``s aside) that no import
    chain from ``repro.cli`` reaches.

    ``from pkg import name`` is resolved through package ``__init__``s to
    the module that defines ``name``, and an ``__init__``'s own imports
    are never followed: a bare re-export reaches nothing."""
    paths = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    trees = {name: ast.parse(path.read_text()) for name, path in paths.items()}
    packages = {name for name, path in paths.items()
                if path.name == "__init__.py"}

    def resolve(module: str, name: str) -> str:
        if f"{module}.{name}" in trees:
            return f"{module}.{name}"
        if module in packages:
            for node in trees[module].body:
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            return resolve(node.module, alias.name)
        return module

    reached, todo = set(), ["repro.cli"]
    while todo:
        module = todo.pop()
        if module in reached or module not in trees:
            continue
        reached.add(module)
        if module in packages:
            continue
        for node in _run_imports(trees[module]):
            if isinstance(node, ast.Import):
                todo.extend(alias.name for alias in node.names)
            else:
                todo.extend(resolve(node.module, alias.name)
                            for alias in node.names)
    return {paths[name].relative_to(SRC).as_posix()
            for name in trees.keys() - reached - packages}


#: The library is what a run imports: every module under ``src/repro``
#: that ``repro.cli`` does not reach, each with the ROADMAP item (8,
#: "least code") that owes its removal.  The set can shrink, not grow;
#: paper models a benchmark runs live in ``benchmarks/models/``.
UNREACHED_MODULES = {
    # Owed by no item: the read generator every test, example and
    # benchmark builds its input with.
    "genome/synthetic.py",
}
#: ``repro.genome`` re-exports the generator, so a run that imports the
#: package loads it; nothing else in ``UNREACHED_MODULES`` may load.
RE_EXPORTED_FIXTURE = "genome/synthetic.py"


def test_library_is_what_a_run_imports():
    assert _unreached_modules() == UNREACHED_MODULES


def test_a_run_loads_no_unreached_module():
    """The walk above never follows a package ``__init__``'s imports, but
    a process runs them: a fresh interpreter that imports the CLI and
    both run paths must hold none of ``UNREACHED_MODULES`` (the
    re-exported generator aside) in ``sys.modules``."""
    code = ("import sys, repro.cli, repro.core.pipelines, "
            "repro.cluster.multiserver; print(*sys.modules, sep='\\n')")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True, timeout=60,
    ).stdout.split()
    unreached = {"repro." + path.removesuffix(".py").replace("/", ".")
                 for path in UNREACHED_MODULES - {RE_EXPORTED_FIXTURE}}
    assert not unreached & set(loaded)


def test_one_version():
    """``repro.__version__`` is the version ``pyproject.toml`` declares
    (read with a regex: ``tomllib`` is not in Python 3.10)."""
    import repro

    declared = re.search(r'^version = "([^"]+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.M)
    assert declared and declared.group(1) == repro.__version__


def test_replicability_is_read_off_the_stage_table():
    """No ``== ("align",)`` / ``!= ("align",)`` decides a placement:
    ``Stage.replicable`` does."""
    pattern = re.compile(r"[!=]=\s*\(\s*[\"']align[\"']\s*,\s*\)")
    found = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted((SRC / "cluster").rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, found
