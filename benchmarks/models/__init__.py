"""The paper's models of what Persona is measured against or run on.

None of this is part of a ``persona`` run, so none of it lives in
``repro``: the figure and table benchmarks import these modules, and
each imports only numpy and ``repro``.

* ``baselines`` — the row-oriented Samtools-, Picard- and
  Samblaster-like tools (Table 2, §5.6);
* ``ceph`` — the Ceph-like object store (Table 1, Fig. 7);
* ``cputrace`` — busy counters and the utilization sampler (Fig. 5);
* ``microarch`` — the op-mix workload analysis (Fig. 8);
* ``simulation`` — the cluster simulator and thread-scaling model
  (Figs. 6 and 7);
* ``tco`` — the total-cost-of-ownership model (Table 3).
"""
