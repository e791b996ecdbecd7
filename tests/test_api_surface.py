"""A ratchet on the control surface: parameter counts and CLI options
can shrink, not silently regrow.  The limits are today's numbers — lower
them when a change earns it.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.genome.synthetic import ReadSimulator

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The keyword entry points: everything a run can be told, spelled out
#: once.  Below them a run travels as a ``PipelineSpec``.
ENTRY_POINTS = {"run_pipeline": 17, "run_placed_pipeline": 25}
#: Where the spec is interpreted, nothing re-lists its fields.
SPEC_MODULES = ("core/pipelines.py", "cluster/multiserver.py")
SPEC_MODULE_LIMIT = 12
#: Everywhere else: ``SuperchunkMergeNode.__init__``'s 12.
LIMIT = 12
CLI_OPTION_LIMIT = 78
RUN_PLACED_PIPELINE_LINES = 107
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


def test_only_the_aligner_dispatches():
    """``.run_chunk(`` call sites under ``core/``: the two aligner nodes
    (and ``paired_bwa``'s own executor).  Sort, dupmark, filter and
    varcall were measured faster on their node threads; a second
    dispatching stage needs a measurement to come back."""
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
                     ("ops.py", "PairedAlignerNode"),
                     ("paired_bwa.py", "BwaPairedAlignerNode")}


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
#: The shm plane's modules take no spill directory either.
BROKER_POOL_MODULES = ("dataflow/shm.py", "cluster/broker.py",
                       "cluster/multiserver.py")


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
    assert ops == ["hello", "shm_verify", "publish", "pull", "ack",
                   "attach", "done", "abort", "admit", "stats"]


#: The compute backend is named once, by ``backend=``/``workers=`` on the
#: entry point: no batch-size knob or its byte estimator, no backend
#: fields on the graph config, no adapter for a raw ``Executor``.
BACKEND_KNOB_NAMES = ("batch_bytes", "payload_nbytes", "as_backend",
                      "_apply_backend_choice")
#: One in-process backend (serial) and one multi-core one (process):
#: under the GIL a thread pool behind the backend API bought nothing.
REMOVED_BACKEND_NAMES = ("ThreadBackend",)


def test_backend_is_named_once():
    from repro.core.ops import AlignerNode
    from repro.core.paired_bwa import BwaPairedAlignerNode
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
    # The paired BWA node's executor is a real handle, not an alias.
    assert "executor_handle" in inspect.signature(
        BwaPairedAlignerNode).parameters


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
