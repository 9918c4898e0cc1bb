#!/usr/bin/env bash
# The benchmark's CI hook: builds the package offline, runs every workload
# in smoke mode (3 jobs of a tenth of the steps, untraced and traced) twice,
# and checks what was printed against BENCHMARK.json. Run from anywhere;
# exits non-zero on the first mismatch.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

python3 - <<'EOF'
import json, re, subprocess, sys, time

manifest = json.load(open("BENCHMARK.json"))
command = manifest["command"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

def fail(msg):
    sys.exit(f"selftest: {msg}")

# The committed manifest is the one the package generates.
generated = subprocess.run(command + ["--manifest"], capture_output=True, text=True, check=True)
if json.loads(generated.stdout) != manifest:
    fail("BENCHMARK.json differs from `--manifest`; regenerate it")

if set(manifest) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
    fail("BENCHMARK.json has keys outside the contract")
counts = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
names = []
for key, (lo, hi) in counts.items():
    if not lo <= len(manifest[key]) <= hi:
        fail(f"{len(manifest[key])} {key}, allowed {lo}..{hi}")
    names += [entry["name"] for entry in manifest[key]]
if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
    fail("a name is repeated or outside [A-Za-z0-9_.-]")
for key in ("end_to_end", "per_layer"):
    if not all(UNIT.match(m["unit"]) for m in manifest[key]):
        fail(f"a {key} unit is outside the contract")
if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
           for m in manifest["end_to_end"]):
    fail("end_to_end lacks setup_s in s, lower is better")

for attempt in (1, 2):
    started = time.time()
    for workload in manifest["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload["name"], "--seed", str(attempt),
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            run = subprocess.run(command + args, capture_output=True, text=True)
            where = f"{workload['name']} --trace {trace}"
            if run.returncode != 0:
                fail(f"{where} exited {run.returncode}:\n{run.stderr}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
            declared = {m["name"]: m["unit"] for m in manifest[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared:
                fail(f"{where}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(printed) ^ set(declared))}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                fail(f"{where}: a metric value is not a number")
    print(f"selftest: smoke pass {attempt} ok in {time.time() - started:.1f} s")
EOF
