#!/usr/bin/env python3
"""Misbehaving line-protocol evaluator for failure-path tests.

Mode comes from argv[1]:
  garbage   - reply with unparseable text for ids divisible by 3
  crash     - exit abruptly on the second request
  hang      - never reply to ids divisible by 2
  wrong-id  - reply with a mismatched id for ids divisible by 5
  stderr    - on the second request, write 3000 bytes and a last line to stderr and exit
  null-objective - reply with "objective": null for ids divisible by 3
  non-object - reply with a JSON value that is not an object for ids divisible by 3
  bad-types - for ids 1, 4, 7, 10, ... reply in turn with the id true, then the
              objective as a string, as a list and as true
  huge      - reply with the objective 1e300, valid JSON but too large to fit, for id 3
Other requests are answered with objective = sum of the parameter values.
"""
import json
import sys
import time

mode = sys.argv[1] if len(sys.argv) > 1 else "garbage"
seen = 0
for line in sys.stdin:
    if not line.strip():
        continue
    req = json.loads(line)
    rid = req["id"]
    seen += 1
    if mode == "garbage" and rid % 3 == 0:
        print("not json at all", flush=True)
        continue
    if mode == "crash" and seen == 2:
        sys.exit(13)
    if mode == "stderr" and seen == 2:
        sys.stderr.write("x" * 3000 + f"\nsolver died on request {rid}\n")
        sys.exit(13)
    if mode == "hang" and rid % 2 == 0:
        time.sleep(3600)
    if mode == "null-objective" and rid % 3 == 0:
        print(json.dumps({"id": rid, "objective": None}), flush=True)
        continue
    if mode == "non-object" and rid % 3 == 0:
        print(json.dumps([rid] if rid % 2 else None), flush=True)
        continue
    if mode == "bad-types" and rid % 3 == 1:
        value = sum(req["params"].values())
        print(json.dumps([
            {"id": True, "objective": value},
            {"id": rid, "objective": str(value)},
            {"id": rid, "objective": [value]},
            {"id": rid, "objective": True},
        ][rid // 3 % 4]), flush=True)
        continue
    if mode == "huge" and rid == 3:
        print(json.dumps({"id": rid, "objective": 1e300}), flush=True)
        continue
    if mode == "wrong-id" and rid % 5 == 0:
        print(json.dumps({"id": rid + 1000, "objective": 0.0}), flush=True)
        continue
    print(json.dumps({"id": rid, "objective": sum(req["params"].values())}), flush=True)
