"""The repo benchmark: host throughput, set-up time, memory and the
modelled cost of the Kona runtime, with per-layer spans on request.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``README.md`` here.
"""
