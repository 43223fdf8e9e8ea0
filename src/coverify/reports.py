"""Report emitters: hazard tables (text/CSV), trace tables, and SVG timelines.

The hazard emitters take the rows ``replay.classify`` returns, in its order.

All output is deterministic: identical inputs produce byte-identical text.
The timeline draws one horizontal band per trace symbol with shaded cells
where a proposition is true and value labels for finite variables, instants
along the x axis; classified hazard instants are flagged with a marker
colored by the instant's most severe verdict.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence

from .logic import Trace
from .replay import CONFIRMED, POSSIBLE, SPURIOUS, ClassifiedHazard

__all__ = [
    "render_text",
    "render_csv",
    "render_svg",
    "trace_table",
    "timeline_svg",
]

CSV_COLUMNS = ("hazard", "instant", "verdict", "d_min", "d_max", "probability", "threshold")

_VERDICT_COLORS = {CONFIRMED: "#c0392b", POSSIBLE: "#e67e22", SPURIOUS: "#7f8c8d"}
_VERDICT_SEVERITY = {SPURIOUS: 0, POSSIBLE: 1, CONFIRMED: 2}


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as XML entities.

    The same string ``xml.sax.saxutils.escape`` returns, ``&`` first so no
    entity is escaped twice; that module's import loads ``urllib.request``
    and the HTTP and e-mail packages behind it.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_text(name: str, rows: Sequence[ClassifiedHazard]) -> str:
    lines = [f"scenario: {name}"]
    if not rows:
        lines.append("no hazard instants above the threshold")
    counts = {CONFIRMED: 0, POSSIBLE: 0, SPURIOUS: 0}
    for row in rows:
        counts[row.verdict] += 1
        lines.append(
            f"{row.hazard} @ t={row.instant}: {row.verdict}  "
            f"d_min={row.d_min:.6f} d_max={row.d_max:.6f} "
            f"p_contact={row.contact_probability:.6f} threshold={row.contact_threshold:.6f}"
        )
    lines.append(
        f"summary: {counts[CONFIRMED]} confirmed, {counts[POSSIBLE]} possible, "
        f"{counts[SPURIOUS]} spurious"
    )
    return "\n".join(lines) + "\n"


def render_csv(rows: Sequence[ClassifiedHazard]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.hazard,
                row.instant,
                row.verdict,
                repr(row.d_min),
                repr(row.d_max),
                repr(row.contact_probability),
                repr(row.contact_threshold),
            ]
        )
    return buffer.getvalue()


def render_svg(rows: Sequence[ClassifiedHazard], trace: Trace) -> str:
    return timeline_svg(trace, rows)


def trace_table(tr: Trace) -> str:
    """Aligned per-instant table of every symbol, 0/1 for propositions."""
    header = ["t", *tr.symbol_names]
    rows = [header]
    for t in range(tr.bound + 1):
        row = [str(t)]
        row += ["1" if tr.propositions[n][t] else "0" for n in tr.propositions]
        row += [tr.variables[n][t] for n in tr.variables]
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def timeline_svg(tr: Trace, hazard_rows: Sequence[ClassifiedHazard] = ()) -> str:
    cell_w, band_h, label_w, pad = 18, 20, 130, 8
    names = tr.symbol_names
    n_inst = tr.bound + 1
    width = label_w + n_inst * cell_w + pad * 2
    height = pad * 2 + band_h * (len(names) + 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:11px}</style>',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # Least severe first, so an instant that several hazards share keeps its
    # most severe verdict.
    by_severity = sorted(hazard_rows, key=lambda row: _VERDICT_SEVERITY[row.verdict])
    marks = {row.instant: row.verdict for row in by_severity}

    for band, name in enumerate(names):
        y = pad + band * band_h
        parts.append(
            f'<text x="{pad}" y="{y + band_h - 6}" fill="#222222">{escape(name)}</text>'
        )
        values = tr.propositions.get(name)
        for t in range(n_inst):
            x = label_w + t * cell_w
            if values is not None:  # proposition band: shade where true
                fill = "#4a90d9" if values[t] else "#f2f2f2"
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell_w - 1}" height="{band_h - 4}" '
                    f'fill="{fill}" stroke="#cccccc"/>'
                )
            else:  # finite-variable band: label each cell with its value
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell_w - 1}" height="{band_h - 4}" '
                    f'fill="#fbfbfb" stroke="#cccccc"/>'
                )
                value = tr.variables[name][t]
                parts.append(
                    f'<text x="{x + 2}" y="{y + band_h - 7}" fill="#333333">'
                    f"{escape(value[:2])}</text>"
                )

    axis_y = pad + len(names) * band_h
    for t in range(n_inst):
        x = label_w + t * cell_w
        parts.append(f'<text x="{x + 2}" y="{axis_y + 14}" fill="#555555">{t}</text>')
        verdict = marks.get(t)
        if verdict is not None:
            color = _VERDICT_COLORS[verdict]
            parts.append(
                f'<circle cx="{x + cell_w // 2}" cy="{axis_y + band_h - 2}" r="3" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
