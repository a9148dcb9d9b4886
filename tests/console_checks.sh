#!/usr/bin/env bash
# End-to-end checks of the command-line program, run from the current
# directory, which should be a fresh, empty one: every file they make lands
# there. The arguments are the command under test:
#
#   tests/console_checks.sh vnfcmap                            # installed
#   PYTHONPATH=/path/to/repo/src tests/console_checks.sh python -m vnfcmap.cli
#
# The inline Python checks import vnfcmap too, through ``python``.
#
# train starts without scipy, sweep trains in a process pool, generate, oracle
# and check-infra load only scipy's assignment extension on their first solve,
# and serve answers over HTTP from its handler threads on ports 8765 and 8766.
# Input that would make a command allocate beyond its bound exits 2 first.
# Each expectation is a command of its own, so that set -e stops on any.
set -euo pipefail

if [ "$#" = 0 ]; then
  echo "usage: $0 COMMAND [ARG...]   (for example: $0 vnfcmap)" >&2
  exit 2
fi
vnfcmap=("$@")

"${vnfcmap[@]}" --help
"${vnfcmap[@]}" generate-scenario --seed 1 --out scenario.json
"${vnfcmap[@]}" train --scenario scenario.json --episodes 20 --out-dir run
# A full run writes the bytes recorded for this scenario and seed: the
# training kernel reads numpy's random streams from raw PCG64 words, and
# this numpy's streams must still be those.
"${vnfcmap[@]}" train --scenario scenario.json --variant off-tab --seed 0 --out-dir recorded
sha256sum -c - <<'SUMS'
799d97a7277cf1b069fa12f86632909b57a98444dee804873f84d710e1fd8f39  recorded/episodes.csv
9f5966edb28956fed15248e480d7297919e016eb1ed2e770b30525e0b087b57c  recorded/model.json
SUMS
# The harmonic step size also reads and writes the visit counts.
"${vnfcmap[@]}" train --scenario scenario.json --variant on-tab --alpha-schedule harmonic --seed 0 --out-dir recorded-harmonic
sha256sum -c - <<'SUMS'
799d97a7277cf1b069fa12f86632909b57a98444dee804873f84d710e1fd8f39  recorded-harmonic/episodes.csv
b758ac9d540278d3ec2b5563abf23bf8bbe7aafc6003cbd58453087d8931d3d9  recorded-harmonic/model.json
SUMS
# A linear run's bytes also pin the gemv and dot that numpy's BLAS computes,
# whose last bits differ between the kernel families of numpy's bundled
# OpenBLAS: model.json is checked against the digest recorded for the core
# name OpenBLAS reports here (SkylakeX: AVX-512, Haswell: AVX2), and a core
# with none recorded fails, naming it.
"${vnfcmap[@]}" train --scenario scenario.json --variant off-lin --seed 0 --out-dir recorded-lin
core=$(python - <<'PY'
import ctypes, glob, os, numpy
lib, = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_-*.so"))
corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print(corename().decode())
PY
)
case "$core" in
  SkylakeX) model=247f562cd119f4f4970d87a72075cca395677ea8e5db32da416b5ad0aac0e5b2 ;;
  Haswell) model=0512107f6110bd3fe4e7a076934611e17224d805dab94fd907050a94bd32f96d ;;
  *) echo "no recorded-lin/model.json digest is recorded for the OpenBLAS core $core" >&2; exit 1 ;;
esac
sha256sum -c - <<SUMS
eaf4043bb7a2d2ee12328ac64b94370eeb31963ff4e4271bd816ff1af79e6d94  recorded-lin/episodes.csv
$model  recorded-lin/model.json
SUMS
# A negative seed is a usage error naming --seed, before any directory is made.
code=0
"${vnfcmap[@]}" train --scenario scenario.json --seed -1 --out-dir negative-seed 2> seed.err || code=$?
cat seed.err
test "$code" = 2
grep -q 'error: argument --seed: ' seed.err
if grep -q Traceback seed.err || test -e negative-seed; then exit 1; fi
"${vnfcmap[@]}" sweep --scenario scenario.json --episodes 20 --seeds 2 --workers 2 --out-dir sweep
# Every hyperparameter off its default, through the process pool: each
# seed's summary records the six values the flags gave.
"${vnfcmap[@]}" sweep --scenario scenario.json --seeds 2 --workers 2 --episodes 20 --alpha 0.05 --gamma 0.9 --epsilon 0.3 --reward-mode efficiency --alpha-schedule harmonic --out-dir hyper-sweep
python - <<'PY'
import glob, json
expected = {"alpha": 0.05, "gamma": 0.9, "epsilon": 0.3, "episodes": 20, "reward_mode": "efficiency", "alpha_schedule": "harmonic"}
paths = sorted(glob.glob("hyper-sweep/seed-*/summary.json"))
assert len(paths) == 2, paths
for path in paths:
    recorded = json.load(open(path))["hyperparameters"]
    assert recorded == expected, (path, recorded)
print("sweep recorded", expected, "in", len(paths), "summaries")
PY
"${vnfcmap[@]}" compare --runs run sweep/seed-0 sweep/seed-1
# Two summaries whose fields are each finite but sum beyond the float
# range: compare names the field and exits 2, writing no Infinity.
for d in huge-a huge-b; do
  mkdir -p "$d"
  echo '{"variant": "on-tab", "average_reward": 1.7e308, "std_dev": 1.7e308, "auc": 1.7e308, "convergence_episode": 1.7e308}' > "$d/summary.json"
done
code=0
"${vnfcmap[@]}" compare --runs huge-a huge-b --out huge.json 2> huge.err || code=$?
cat huge.err
test "$code" = 2
grep -q '^error: average_reward: ' huge.err
if grep -q Traceback huge.err || test -e huge.json; then exit 1; fi
"${vnfcmap[@]}" oracle --scenario scenario.json
# In either mode, the objective is bit for bit the sum of its per-pair
# surpluses from 0.0 in component order.
for mode in absolute_surplus normalized_surplus; do
  "${vnfcmap[@]}" oracle --scenario scenario.json --objective "$mode" --json > "oracle-$mode.json"
  python - "oracle-$mode.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
total = 0.0
for entry in doc["per_pair_wastage"]:
    total += entry["surplus"]
assert total.hex() == float(doc["objective_value"]).hex(), (total, doc["objective_value"])
print(doc["objective_mode"], "objective", total, "is the sum of its per-pair surpluses")
PY
done
"${vnfcmap[@]}" check-infra --scenario scenario.json
# Each matrix Python resolves its own scipy release; a generation's
# feasibility solves and an oracle solve on it must not have fallen
# back to importing all of scipy.optimize.
for argv in "['generate-scenario', '--seed', '2', '--out', 'generated.json']" "['oracle', '--scenario', 'scenario.json']"; do
  python -c "import sys; from vnfcmap import cli; code = cli.main($argv); assert code == 0 and 'scipy.optimize' not in sys.modules, code; import scipy; print('scipy', scipy.__version__, $argv[0], 'without scipy.optimize')"
done
# Scenario files have no size cap. On this one, every (7, 7) machine
# ties under the oracle's bound; a solve for each of the 14,992 took
# about two minutes per command.
python - <<'PY'
from vnfcmap.model import VirtualMachine, make_slice
from vnfcmap.scenario import Scenario, save
small = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6)]
caps = [(7, 7)] * (15000 - len(small)) + small
vms = tuple(VirtualMachine(j + 1, c, s) for j, (c, s) in enumerate(caps))
save(Scenario(make_slice([2, 2, 2, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1]), vms), "crafted.json")
PY
timeout 30 "${vnfcmap[@]}" oracle --scenario crafted.json > /dev/null
timeout 30 "${vnfcmap[@]}" check-infra --scenario crafted.json > /dev/null
# PM 1's machines sum to compute 3.0000000000000004 against a capacity
# of 3 while their load fractions sum below 1: check-infra reports the
# PM as overloaded and finishes its report with exit 0.
python - <<'PY'
from vnfcmap.infra import VmPlacement
from vnfcmap.model import PhysicalMachine, VirtualMachine, make_slice
from vnfcmap.scenario import Scenario, save
caps = (0.6864106804389194, 0.5549792526936609, 1.155163064285101, 0.6034470025823188)
vms = tuple(VirtualMachine(j + 1, c, 1) for j, c in enumerate(caps))
vms += tuple(VirtualMachine(j, 4, 4) for j in range(5, 13))
pms = (PhysicalMachine(1, 3, 8, max_vm_count=4), PhysicalMachine(2, 100, 100, max_vm_count=8))
placement = VmPlacement(tuple((int(j < 4), int(j >= 4)) for j in range(12)), (True, True))
subnet = make_slice([2, 2, 2, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1, 1, 1])
save(Scenario(subnet, vms, pms=pms, placement=placement), "overcommitted.json")
PY
"${vnfcmap[@]}" check-infra --scenario overcommitted.json > overcommitted.out
cat overcommitted.out
grep -q '^pm 1: overloaded (' overcommitted.out
# A placement built with bool entries is written from its int8 matrix,
# as 0 and 1, so check-infra reads the file it saved.
python - <<'PY'
from vnfcmap.infra import VmPlacement
from vnfcmap.model import PhysicalMachine
from vnfcmap.scenario import GenerationParams, Scenario, generate, save
base = generate(1, GenerationParams(num_vms=8))
pms = (PhysicalMachine(1, 100, 100, max_vm_count=8),)
placement = VmPlacement(((True,),) * 8, (True,))
save(Scenario(base.subnet, base.vms, pms=pms, placement=placement), "bools.json")
PY
"${vnfcmap[@]}" check-infra --scenario bools.json
# save reads back the document it is about to write: a machine whose
# capacity its reader refuses raises that refusal and writes no file.
python - <<'PY'
import dataclasses, math, os
from vnfcmap.scenario import GenerationParams, Scenario, ScenarioFormatError, generate, save
base = generate(1, GenerationParams(num_vms=8))
vms = base.vms[:7] + (dataclasses.replace(base.vms[7], compute_cap=math.inf),)
try:
    save(Scenario(base.subnet, vms), "unreadable.json")
    raise SystemExit("a scenario its reader refuses was saved")
except ScenarioFormatError as exc:
    assert exc.field == "vms[7].compute_cap", exc
    print("save refused", exc)
assert not os.path.exists("unreadable.json")
PY
# A 4,000 x 2,000 placement in compact JSON (16 MB). Both commands read
# it as one int8 array; read entry by entry, each took about 6-7 s.
python - <<'PY'
import json
from pathlib import Path
from vnfcmap.infra import VmPlacement
from vnfcmap.model import PhysicalMachine
from vnfcmap.scenario import GenerationParams, Scenario, generate, scenario_to_dict
m, n = 4000, 2000
base = generate(1, GenerationParams(num_vms=m))
pms = tuple(PhysicalMachine(k + 1, 20, 20, max_vm_count=2) for k in range(n))
rows = [tuple(int(k == host) for k in range(n)) for host in range(n)]
placement = VmPlacement(tuple(rows[j % n] for j in range(m)), (True,) * n)
doc = scenario_to_dict(Scenario(base.subnet, base.vms, pms=pms, placement=placement))
Path("placed.json").write_text(json.dumps(doc, separators=(",", ":")))
PY
timeout 20 "${vnfcmap[@]}" check-infra --scenario placed.json > /dev/null
timeout 20 "${vnfcmap[@]}" oracle --scenario placed.json > /dev/null
# One machine more than generate-scenario's bound is a usage error,
# not an allocation that ends in a traceback.
big=$(python -c "from vnfcmap.cli import MAX_GENERATED_VMS as m; print(m + 1)")
code=0
"${vnfcmap[@]}" generate-scenario --seed 1 --vms "$big" --out big.json 2> big.err || code=$?
cat big.err
test "$code" = 2
if grep -q Traceback big.err; then exit 1; fi
# The largest scenario it does write is read back within a minute each.
max=$(python -c "from vnfcmap.cli import MAX_GENERATED_VMS as m; print(m)")
"${vnfcmap[@]}" generate-scenario --seed 1 --vms "$max" --out max.json
timeout 60 "${vnfcmap[@]}" oracle --scenario max.json > /dev/null
timeout 60 "${vnfcmap[@]}" check-infra --scenario max.json > /dev/null
# A range above 2**53 would write amounts that its readers refuse.
code=0
"${vnfcmap[@]}" generate-scenario --seed 1 --cap-range 3 9007199254740993 --out wide.json 2> wide.err || code=$?
cat wide.err
test "$code" = 2
if grep -q Traceback wide.err; then exit 1; fi
# Just above the tabular table budget, off-tab is refused before
# anything is allocated, and a linear variant still trains.
m=$(python -c "import math; from vnfcmap.cli import MAX_TABLE_ENTRIES as e; print(math.isqrt(e // 8) + 1)")
"${vnfcmap[@]}" generate-scenario --seed 1 --vms "$m" --out tables.json
code=0
"${vnfcmap[@]}" train --scenario tables.json --variant off-tab --out-dir tab 2> tab.err || code=$?
cat tab.err
test "$code" = 2
grep -q '^error: ' tab.err
"${vnfcmap[@]}" train --scenario tables.json --variant off-lin --episodes 20 --out-dir lin
# The decision service: a greedy and a trained POST /map must each answer
# 200, and an integer demand beyond 2**53, which has no exact float, 400.
# A 15,000-machine body, compact, fits under the 1 MiB cap; greedy and
# oracle must each answer it within 30 s.
"${vnfcmap[@]}" generate-scenario --seed 1 --vms 15000 --out wide-inventory.json
"${vnfcmap[@]}" serve --port 8765 --model run/model.json &
server=$!
trap 'kill $server' EXIT
python - <<'PY'
import json, time, urllib.error, urllib.request
base = "http://127.0.0.1:8765"
for _ in range(150):
    try:
        urllib.request.urlopen(base + "/health", timeout=1).close()
        break
    except OSError:
        time.sleep(0.2)
else:
    raise SystemExit("serve did not answer GET /health within 30 s")
scenario = json.load(open("scenario.json"))
for policy in ("greedy", {"kind": "trained"}):
    body = {"slice": scenario["slice"], "vms": scenario["vms"], "policy": policy}
    request = urllib.request.Request(base + "/map", data=json.dumps(body).encode())
    with urllib.request.urlopen(request, timeout=30) as reply:
        assert reply.status == 200, (policy, reply.status)
        print(policy, json.load(reply)["status"])
wide = json.load(open("wide-inventory.json"))
for policy in ("greedy", "oracle"):
    body = {"slice": wide["slice"], "vms": wide["vms"], "policy": policy}
    data = json.dumps(body, separators=(",", ":")).encode()
    assert len(data) < 1 << 20, len(data)
    request = urllib.request.Request(base + "/map", data=data)
    with urllib.request.urlopen(request, timeout=30) as reply:
        assert reply.status == 200, (policy, reply.status)
        print(policy, len(wide["vms"]), "machines,", len(data), "bytes:", json.load(reply)["status"])
body = {"slice": scenario["slice"], "vms": scenario["vms"], "policy": "greedy"}
body["slice"]["components"][0]["compute_req"] = 2**53 + 1
body["vms"][0].update(compute_cap=2**53, storage_cap=100)
for vm in body["vms"][1:]:
    vm["compute_cap"] = min(vm["compute_cap"], 9)
request = urllib.request.Request(base + "/map", data=json.dumps(body).encode())
try:
    urllib.request.urlopen(request, timeout=30).close()
    raise SystemExit("a demand of 2**53 + 1 was not refused")
except urllib.error.HTTPError as reply:
    field = json.load(reply)["error"]["field"]
    assert (reply.code, field) == (400, "slice.components[0].compute_req"), (reply.code, field)
    print("2**53 + 1 refused:", field)
PY
# A model file's numbers follow the rule of every other outside number: a
# first weight of 2**64, which no numpy integer dtype holds, is read as the
# float it rounds to, and a trained POST /map naming that model maps.
python - <<'PY'
import json, os, urllib.request
model = json.load(open("lin/model.json"))
model["weights"][0] = 18446744073709551616
with open("wide-weight.json", "w") as handle:
    json.dump(model, handle)
scenario = json.load(open("scenario.json"))
policy = {"kind": "trained", "model": os.path.abspath("wide-weight.json")}
body = {"slice": scenario["slice"], "vms": scenario["vms"], "policy": policy}
request = urllib.request.Request("http://127.0.0.1:8765/map", data=json.dumps(body).encode())
with urllib.request.urlopen(request, timeout=30) as reply:
    assert reply.status == 200, reply.status
    print("weight 2**64:", json.load(reply)["status"])
PY
# A method the service does not serve gets a 501 JSON answer naming
# the request, as every refusal of the request line or headers does.
python - <<'PY'
import json, urllib.error, urllib.request
request = urllib.request.Request("http://127.0.0.1:8765/map", data=b"{}", method="PUT")
try:
    urllib.request.urlopen(request, timeout=30).close()
    raise SystemExit("PUT /map was not refused")
except urllib.error.HTTPError as reply:
    answer = (reply.code, reply.headers["Content-Type"], json.load(reply)["error"]["field"])
    assert answer == (501, "application/json", "<request>"), answer
    print("PUT /map refused:", answer)
PY
# A request with bare \n line ends and a lowercase content-length header,
# sent over a raw socket, is read as any other: a greedy POST /map maps.
python - <<'PY'
import json, socket
scenario = json.load(open("scenario.json"))
body = json.dumps({"slice": scenario["slice"], "vms": scenario["vms"], "policy": "greedy"})
head = f"POST /map HTTP/1.0\ncontent-length: {len(body.encode())}\n\n"
answer = b""
with socket.create_connection(("127.0.0.1", 8765), timeout=30) as sock:
    sock.sendall(head.encode() + body.encode())
    while chunk := sock.recv(65536):
        answer += chunk
head, _, payload = answer.partition(b"\r\n\r\n")
status = (head.split()[1], json.loads(payload)["status"])
assert status == (b"200", "mapped"), status
print("bare-newline POST /map:", status)
PY
# A second server on the port the first one holds exits 2 with an
# error line, not a traceback; the timeout stops one that did bind.
code=0
timeout 60 "${vnfcmap[@]}" serve --port 8765 2> second.err || code=$?
cat second.err
test "$code" = 2
grep -q '^error: ' second.err
# A default model that is not a policy file stops serve at start.
code=0
timeout 60 "${vnfcmap[@]}" serve --port 8766 --model scenario.json 2> model.err || code=$?
cat model.err
test "$code" = 2
grep -q '^error: ' model.err
