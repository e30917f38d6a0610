"""Result assembly helpers of ``bench/run.py``."""

import json

import run
import workloads


def test_workload_names_agree_with_benchmark_file():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_scipy_import_time_counts_outermost_scipy_entries_only():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy",
        "import time:         5 |          5 |         scipy._lib",
        "import time:         7 |          7 |         warnings_helper",
        "import time:       100 |        112 |       scipy",
        "import time:        20 |         20 |         scipy.linalg._flapack",
        "import time:        30 |         50 |       scipy.linalg",
        "import time:         1 |        163 |     neutreno.linalg",
        "import time:         4 |          4 |     scipy.special",
    ])
    assert run.scipy_seconds_from_importtime(report) == (112 + 50 + 4) / 1e6


def test_tail_needs_ten_ops_beyond_the_percentile():
    assert run.tail([1.0] * 19) is None
    twenty = run.tail([float(i) for i in range(1, 21)])
    assert twenty == {"percentile": 50, "value_s": 10.0, "ops": 20}
    assert run.tail([float(i) for i in range(1, 1001)])["percentile"] == 99
