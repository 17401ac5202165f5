"""Golden outputs: SHA-256 digests of what the program prints and writes on
fixed inputs, kept in golden_outputs.json next to this file and recomputed
by test_golden.py.

* ``certify``: every certify template of perfbench/workloads.py, once as
  built and once relabeled by a fixed seed, through
  ``main(["gog", "certify", ..., "--json", "--out", f])``; each digest covers
  the exit code, the stdout and the bytes written to f.
* ``scan``: the record digest of ``amalgam_scan(two_group_scan_list(16))``,
  the one that perfbench/golden.json holds.
* ``wreath``: every wreath table the Higman towers of test_tower.py's
  scan_towers fixture build.
* ``catalog``: the tables of the catalog groups.

After an intended change of output, rewrite the file from the repository
root with

    PYTHONPATH=src python tests/golden_outputs.py

and list the entries that moved in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PATH = os.path.join(HERE, "golden_outputs.json")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

from residuap import catalog, cli, embed  # noqa: E402


def _table_digest(mult) -> str:
    return hashlib.sha256(mult.astype("<i8").tobytes()).hexdigest()


def certify_digests() -> dict[str, str]:
    out = {}
    rng = random.Random("golden-outputs")
    with tempfile.TemporaryDirectory() as tmp:
        req, cert = (os.path.join(tmp, f) for f in ("req.json", "cert.json"))
        for i, t in enumerate(workloads.certify_templates()):
            relabeled = workloads.relabel_gog(t["gog"], rng)
            for labeling, gog in (("as built", t["gog"]),
                                  ("relabeled", relabeled)):
                with open(req, "w") as fh:
                    json.dump({"gog": gog}, fh)
                if os.path.exists(cert):
                    os.remove(cert)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(["gog", "certify", "--file", req, "--p",
                                     str(t["p"]), "--json", "--out", cert])
                h = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
                if os.path.exists(cert):
                    with open(cert, "rb") as fh:
                        h.update(fh.read())
                out[f"{i:02d} {t['label']} ({labeling})"] = h.hexdigest()
    return out


def wreath_digests(groups, records) -> list[str]:
    """The towers of the scan's first 20 yes records and of every 400th yes
    record of C2^4 u C2^4', as in test_tower.py's scan_towers fixture."""
    yes = [r for r in records if r.embeddable]
    block = [r for r in yes if (r.g_name, r.h_name) == ("C2^4", "C2^4'")]
    out = []
    wreath = embed.wreath

    def recording(X, H, cap):
        wp = wreath(X, H, cap=cap)
        out.append(f"{X.order} wr {H.order}: {_table_digest(wp.group.mult)}")
        return wp

    embed.wreath = recording
    try:
        for rec in yes[:20] + block[::400]:
            am = embed.scan_amalgam_object(groups, rec)
            dec = embed.amalgam_embeddable(am)
            fw = embed.feasible_witness(am, dec.certificate, 2, cap=2048)
            if fw is not None:
                embed.higman_embed(am, fw[0], fw[1], cap=2048)
    finally:
        embed.wreath = wreath
    return out


def catalog_digests() -> dict[str, str]:
    groups = (catalog.two_group_scan_list(16) + catalog.property_suite(2)
              + catalog.property_suite(3) + catalog.property_suite(5)
              + [catalog.by_name(n) for n in ("D8", "D16", "Q8", "SD16",
                                              "Heis27", "C9:C3", "C4xC2")])
    return {G.name: _table_digest(G.mult) for G in groups}


def compute() -> dict:
    groups = catalog.two_group_scan_list(16)
    records = embed.amalgam_scan(groups)
    return {"certify": certify_digests(),
            "scan": workloads.Scan.digest(records),
            "wreath": wreath_digests(groups, records),
            "catalog": catalog_digests()}


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
