#!/usr/bin/env bash
# Smoke test of the benchmark: every workload at `--seconds 1` (scale 1/28),
# untraced and traced, checking that the result line has the contract's
# schema, names exactly the metrics BENCHMARK.json lists, and reports
# correct outputs. Under 30 s once built.
# Usage: benchmark/smoke.sh   (from anywhere inside the checkout)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pdsp-benchmark"

for workload in wc-shuffle ad-join ad-join-ckpt wc-dist2; do
  for trace in 0 1; do
    "$bin" --workload "$workload" --seed 7 --seconds 1 --trace "$trace" 2>/dev/null |
      tail -n 1 |
      python3 -c '
import json, sys
trace, workload = sys.argv[1] == "1", sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
result = json.loads(sys.stdin.read())
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] is True, "outputs differ from the reference"
assert result["attempted"] >= 1 and result["failed"] == 0, result
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == want, set(got) ^ set(want)
assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
print("ok  %-13s trace %d  %d metrics, %d tuples" % (workload, trace, len(got), result["attempted"]))
' "$trace" "$workload"
  done
done
