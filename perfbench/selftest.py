#!/usr/bin/env python3
"""Quick self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at its smallest size (--quick), untraced and traced, and
checks that:
  * every metric of BENCHMARK.json appears with its unit, and the printed
    table shows failed_share (and fig8_slope_ms_per_app on fig8_ladder);
  * every case passes its output check;
  * pagecache.* and tracelog.* read 0 on mega_tenant, pagecache.* is
    non-zero elsewhere, and tracelog.* is non-zero only on nighres_replay;
  * a deliberately wrong pinned fingerprint fails cases (failed_share > 0);
  * the Fig 8 pins agree with experiments/fig8.expected.json, and every
    per-layer metric has a hypothesis;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 1 on the first failed check.
"""
import json
import math
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((bench.BENCH_DIR / "expected.json").read_text())
SLOPE = "fig8_slope_ms_per_app"


def check(condition, message):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def invoke(workload, trace, pins=None, root=bench.ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "42", "--seconds", "1", "--trace", str(trace), "--quick"]
    if pins:
        cmd += ["--pins", str(pins)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def result_of(workload, trace, pins=None):
    out = invoke(workload, trace, pins)
    check(out.returncode == 0, f"{workload} --trace {trace} exits 0" +
          (f"\n{out.stderr[-2000:]}" if out.returncode else ""))
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def close(a, b, tolerance):
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def check_pins_and_hypotheses():
    tol = PINS["tolerance"]
    golden = json.loads((bench.ROOT / "experiments" / "fig8.expected.json").read_text())
    for case in golden["cases"]:
        pinned = PINS["fig8_ladder"].get(case["label"])
        check(pinned is not None and close(pinned, case["values"]["makespan"], tol),
              f"fig8 pin {case['label']} agrees with experiments/fig8.expected.json")

    hypotheses = json.loads((bench.BENCH_DIR / "hypotheses.json").read_text())["hypotheses"]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    check(sorted(hypotheses) == sorted(layer), "every per-layer metric has one hypothesis")
    targets = {m["name"] for m in BENCHMARK["end_to_end"]} | {SLOPE}
    workloads = set(bench.workload_names()) | {"*"}
    for name, entry in hypotheses.items():
        for key in ("moves", "minor", "unmoved"):
            for target in entry.get(key, []):
                metric, _, workload = target.partition("@")
                check(metric in targets | {"*"} and workload in workloads,
                      f"hypothesis {name} {key} target {target} names a metric and workload")


def shows(stdout, name, unit):
    """The printed table has the line '  <name> = <value> <unit>'."""
    line = rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$"
    return re.search(line, stdout, re.MULTILINE) is not None


def check_metrics(workload, trace, stdout, result):
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} --trace {trace} result has exactly the four keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} --trace {trace} passes every output check")
    check(sorted(metrics) == sorted(m["name"] for m in spec),
          f"{workload} --trace {trace} prints every {'per-layer' if trace else 'end-to-end'} metric")
    for m in spec:
        value = metrics[m["name"]]
        check(value["unit"] == m["unit"] and math.isfinite(value["value"]),
              f"{workload} {m['name']} is a number in {m['unit']}")
        if not trace:
            check(value["value"] > 0, f"{workload} {m['name']} is positive")
        check(shows(stdout, m["name"], m["unit"]), f"{workload} table shows {m['name']} with its unit")
    check("  failed_share = 0 (" in stdout, f"{workload} table shows failed_share")
    if workload == "fig8_ladder" and not trace:
        check(shows(stdout, SLOPE, "ms/app"), f"{workload} table shows {SLOPE} with its unit")


def check_layer_isolation(workload, metrics):
    def value(name):
        return metrics[name]["value"]
    tracelog = [m for m in metrics if m.startswith("tracelog.")]
    pagecache = [m for m in metrics if m.startswith("pagecache.")]
    if workload == "nighres_replay":
        check(all(value(m) > 0 for m in tracelog), f"{workload} tracelog.* are non-zero")
    else:
        check(all(value(m) == 0 for m in tracelog), f"{workload} tracelog.* are zero")
    if workload == "mega_tenant":
        check(all(value(m) == 0 for m in pagecache), f"{workload} pagecache.* are zero")
    else:
        check(all(value(m) > 0 for m in pagecache), f"{workload} pagecache.* are non-zero")
    if workload == "fig8_ladder":
        check(value(SLOPE) > 0, f"{workload} {SLOPE} is positive")


def check_wrong_pin():
    wrong = json.loads(json.dumps(PINS))
    wrong["fig8_ladder"]["wrench_local,instances=1"] += 1.0
    path = bench.BUILD_ROOT / "selftest-wrong-pins.json"
    path.write_text(json.dumps(wrong))
    stdout, result = result_of("fig8_ladder", 0, pins=path)
    check(not result["correct"] and result["failed"] == 1 and "  FAIL " in stdout,
          "fig8_ladder with one wrong pinned makespan reports failed_share > 0")


def check_refuses_without_sources():
    bare = bench.BUILD_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = invoke("fig8_ladder", 0, root=bare)
    shutil.rmtree(bare)
    check(out.returncode != 0 and '"correct"' not in out.stdout,
          "without the sources the benchmark exits non-zero and prints no result")


def main():
    check_pins_and_hypotheses()
    for workload in bench.workload_names():
        for trace in (0, 1):
            stdout, result = result_of(workload, trace)
            check_metrics(workload, trace, stdout, result)
            if trace:
                check_layer_isolation(workload, result["metrics"])
    check_wrong_pin()
    check_refuses_without_sources()
    print("self-test passed")


if __name__ == "__main__":
    main()
