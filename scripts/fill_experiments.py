#!/usr/bin/env python3
"""Injects measured figure tables from results/*.json into EXPERIMENTS.md
between the MEASURED:BEGIN/END markers."""
import json, pathlib

ORDER = ["fig3a", "fig3a-synthetic", "fig3b", "fig4", "fig5", "fig6",
         "ablation-traversal", "ablation-mbr", "ablation-packing",
         "extra-mnn", "extra-hnn"]

PAPER = {
    "fig3a": "Paper: bars 0–1500 s on a 1.2 GHz Pentium M; BNN-MAXMAX slowest (~1300 s), switching to NXNDIST ≈ 6× for BNN/RBA and ~10× for MBA; MBA-NXNDIST fastest, ≥ 2× over GORDER.",
    "fig3a-synthetic": "Paper (§4.3, text only): \"similar results are also observed with the synthetic datasets\".",
    "fig3b": "Paper: GORDER improves rapidly from 1 MB to 4 MB then stabilizes; MBA consistently faster — ~2× at large pools, ~6× at 512 KB.",
    "fig4": "Paper: MBA ≈ 3× faster than GORDER at 2/4/6-D; CPU bars 15/33/38 s (MBA) vs 66/96/110 s (GORDER); both grow gently with D.",
    "fig5": "Paper: MBA over an order of magnitude faster than GORDER for every k in 10..50.",
    "fig6": "Paper: same as Fig. 5 on the 10-D FC data.",
    "ablation-traversal": "Paper (§3.3.2, text only): depth-first + bi-directional expansion \"proves to outperform the others\".",
    "ablation-mbr": "Paper (§3.2): the MBR enhancement is what makes the quadtree usable for ANN (plain quadrants ⇒ MINMINDIST 0 between neighbors).",
    "ablation-packing": "Our own design decision (DESIGN.md §6): adaptive multi-level node packing vs the naive one-decomposition-level-per-page quadtree layout.",
    "extra-mnn": "Paper (§2): MNN's \"CPU cost is still high because of the large number of distance calculations for each NN search\" — our extra measurement.",
    "extra-hnn": "Paper (§2): HNN loses to index-building + BNN and \"is susceptible to poor performance on skewed data\" — our extra measurement.",
}

def render(fig):
    rows = fig["rows"]
    out = [f"### {fig['id']} — {fig['workload']}", "",
           PAPER.get(fig["id"], ""), "",
           "| group | method | cpu (s) | io (s) | total (s) | pages | dist-comps | enqueued |",
           "|---|---|---:|---:|---:|---:|---:|---:|"]
    for r in rows:
        total = r["cpu_seconds"] + r["io_seconds"]
        out.append(
            f"| {r['group']} | {r['label']} | {r['cpu_seconds']:.3f} | "
            f"{r['io_seconds']:.2f} | {total:.2f} | {r['physical_pages']} | "
            f"{r['distance_computations']} | {r['enqueued']} |")
    out.append("")
    return "\n".join(out)

results = pathlib.Path("results")
sections = []
for fid in ORDER:
    p = results / f"{fid}.json"
    if p.exists():
        sections.append(render(json.loads(p.read_text())))
body = "\n".join(sections)

exp = pathlib.Path("EXPERIMENTS.md").read_text()
begin, end = "<!-- MEASURED:BEGIN -->", "<!-- MEASURED:END -->"
pre = exp.split(begin)[0]
post = exp.split(end)[1]
pathlib.Path("EXPERIMENTS.md").write_text(pre + begin + "\n\n" + body + "\n" + end + post)
print("injected", len(sections), "figures")
