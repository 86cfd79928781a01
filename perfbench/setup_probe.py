"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py PARAMS_JSON

Times importing beaconlab, building the workload's scenario and the
vulnerability database, and constructing and starting the proxy and the
DNS responder, until both listen, as CPU time at the host's reference
speed (refclock.py). Prints ``{"setup_s": ...}``; the service threads
are daemons and end with the process.
"""

import json
import sys

from refclock import CpuMeter

clock = CpuMeter().__enter__()

import os  # noqa: E402

# correlate is unused here but imported: analyze needs it, so it is set-up.
from beaconlab import clientsim, correlate, dnssim, proxy  # noqa: E402,F401

p = json.loads(sys.argv[1])
config = clientsim.calibrated_config(**p["scenario"])
db = clientsim.calibrated_vuln_db()
responder = dnssim.DnsResponder(
    dnssim.ZoneConfig(zone=p["zone"], payload_address=p["payload"], ttl_seconds=0)
)
responder.start()
service = proxy.ProxyService(
    proxy.ProxyConfig(
        exchange_log_path=os.path.join(p["dir"], "exchanges.jsonl"),
        tag_log_path=os.path.join(p["dir"], "tags.csv"),
        error_log_path=os.path.join(p["dir"], "errors.log"),
        mode=proxy.ACTIVE,
        zone=p["zone"],
        static_label=p["static_label"],
        payload_address=p["payload"],
    )
)
service.start()
clock.__exit__(None, None, None)
print(json.dumps({"setup_s": clock.ref_s()}))
