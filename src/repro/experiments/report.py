"""Aggregate benchmark results into one report document.

``python -m repro report`` (or :func:`build_report`) collects every
table the benchmarks wrote under ``benchmarks/results/`` into a single
markdown file, ordered to follow the paper's evaluation section -- the
artifact to attach to a reproduction writeup.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

#: Presentation order: the paper's artifacts first, extensions after.
SECTION_ORDER = [
    ("fig1_fate_breakdown", "Fig. 1 — FATE epoch breakdown"),
    ("table3_running_time", "Table III — running time per epoch"),
    ("table4_throughput", "Table IV — HE throughput"),
    ("fig6_sm_utilization", "Fig. 6 — SM utilization"),
    ("fig6_sm_utilization_chart", None),
    ("table5_ablation", "Table V — ablation study"),
    ("fig7_compression_ratio", "Fig. 7 — compression ratio"),
    ("table6_component_time", "Table VI — component running time"),
    ("fig8_convergence", "Fig. 8 — convergence"),
    ("fig8_convergence_chart", None),
    ("table7_convergence_bias", "Table VII — convergence bias"),
    ("table7_bias_sensitivity", None),
    ("theory_acceleration", "Eqs. 10–14 — theory vs measured"),
    ("fig4_pipeline_stages", "Fig. 4 companion — pipeline stages"),
    ("ablation_resource_manager", "Ablation — resource manager"),
    ("ablation_pipeline_depth", "Ablation — pipeline depth"),
    ("scaling_participants", "Beyond the paper — participant scaling"),
    ("related_work_symmetric", "Related work — symmetric HE"),
]


def build_report(results_dir: Path,
                 output_path: Optional[Path] = None) -> str:
    """Assemble the report; optionally write it to ``output_path``.

    Raises ``FileNotFoundError`` when the results directory is missing
    (run the benchmarks first).
    """
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(
            f"{results_dir} not found -- run "
            f"`pytest benchmarks/ --benchmark-only` first")

    lines: List[str] = [
        "# Reproduction report",
        "",
        "Generated from `benchmarks/results/`.  See EXPERIMENTS.md for "
        "the paper-versus-measured reading guide and caveats.",
        "",
    ]
    seen = set()
    for stem, heading in SECTION_ORDER:
        path = results_dir / f"{stem}.txt"
        if not path.exists():
            continue
        seen.add(path.name)
        if heading:
            lines.append(f"## {heading}")
            lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip("\n"))
        lines.append("```")
        lines.append("")
    # Anything the order list doesn't know about still gets included.
    for path in sorted(results_dir.glob("*.txt")):
        if path.name in seen:
            continue
        lines.append(f"## {path.stem}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip("\n"))
        lines.append("```")
        lines.append("")
    report = "\n".join(lines)
    if output_path is not None:
        Path(output_path).write_text(report)
    return report
