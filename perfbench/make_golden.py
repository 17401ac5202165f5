"""Regenerate perfbench/golden.json, the frozen reference answers.

Run from the repository root: python3 perfbench/make_golden.py

The file records, at the commit that defined the benchmark:
  scan         the record count, the no count, the first provably-no record
               (acceptance 06) and a digest of every record, so that a change
               to the enumeration or to any verdict is caught;
  certify      the verdict for each certify template on its catalog labeling;
               a run fails only if a request contradicts it (yes against no),
               since turning unknown into a decision is an improvement;
  filtrations  the dimension-series term orders of each property-suite group,
               which do not depend on the labeling.
Review any diff of this file by hand: it is the reference, not an output.
"""

import io
import json
import os
import sys
import contextlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import Filtrations, Scan, certify_templates  # noqa: E402


def main():
    from residuap import catalog, cli, embed
    from residuap.filtration import dimension_series
    groups = catalog.two_group_scan_list(16)
    recs = embed.amalgam_scan(groups)
    no = [r for r in recs if not r.embeddable]
    first = no[0]
    scan = {"records": len(recs), "no": len(no),
            "first_no": [first.g_name, first.h_name, list(first.u_g),
                         list(first.u_h), list(first.iso)],
            "sha256": Scan.digest(recs)}
    verdicts = []
    work = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "golden_req.json")
    for t in certify_templates():
        with open(path, "w") as fh:
            json.dump({"gog": t["gog"]}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gog", "certify", "--file", path, "--p",
                             str(t["p"]), "--json"])
        verdicts.append({0: "yes", 10: "no", 20: "unknown"}[code])
    os.remove(path)
    filt = {}
    for p, bound in Filtrations.SUITES:
        for G in catalog.property_suite(p):
            if G.order <= bound:
                filt[f"{p}:{G.name}"] = [len(t) for t in
                                         dimension_series(G, p).terms]
    out = {"scan": scan, "certify": verdicts, "filtrations": filt}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print({v: verdicts.count(v) for v in set(verdicts)})


if __name__ == "__main__":
    main()
