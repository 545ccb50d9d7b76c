"""Host-cost benchmark of the fleet simulator.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`perfbench.workloads`),
checks its output and prints the end-to-end metrics (``--trace 0``) or
the per-layer split of a traced run (``--trace 1``) as the last line of
standard output.  ``perfbench/README.md`` lists every metric and the
end-to-end metric each per-layer metric should move.
"""
