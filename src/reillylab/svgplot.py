"""Minimal SVG line plots, written directly as path elements.

Enough for convergence studies: one series drawn as a polyline with
markers on logarithmic axes, with its label as the legend.  No plotting
dependency; output is deterministic for identical input.
"""

import math

_WIDTH = 640.0
_HEIGHT = 440.0
_MARGIN_L = 70.0
_MARGIN_R = 20.0
_MARGIN_T = 40.0
_MARGIN_B = 55.0
_COLOR = "#1f6fb2"


def fit_loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x); needs positive data."""
    lx = [math.log(float(v)) for v in x]
    ly = [math.log(float(v)) for v in y]
    n = len(lx)
    if n < 2:
        raise ValueError("need at least two points to fit a slope")
    mx = sum(lx) / n
    my = sum(ly) / n
    denom = sum((v - mx) ** 2 for v in lx)
    if denom == 0.0:
        raise ValueError("degenerate abscissae")
    return sum((u - mx) * (v - my) for u, v in zip(lx, ly)) / denom


def _ticks(lo, hi):
    """Powers of ten within [lo, hi] on a log axis, or the two ends."""
    klo = math.floor(math.log10(lo) - 1e-12)
    khi = math.ceil(math.log10(hi) + 1e-12)
    vals = [10.0 ** k for k in range(int(klo), int(khi) + 1)]
    return [v for v in vals if lo / 1.0001 <= v <= hi * 1.0001] or [lo, hi]


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def line_plot(xs, ys, label, title, xlabel, ylabel):
    """Render the series (xs, ys) on log-log axes to an SVG document
    string."""
    pts = [(float(px), float(py)) for px, py in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")
    if any(fx <= 0 or fy <= 0 for fx, fy in pts):
        raise ValueError("log axes need positive data")

    lxs = [math.log(px) for px, _ in pts]
    lys = [math.log(py) for _, py in pts]
    xlo, xhi = min(lxs), max(lxs)
    ylo, yhi = min(lys), max(lys)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    padx = 0.05 * (xhi - xlo)
    pady = 0.08 * (yhi - ylo)
    xlo, xhi = xlo - padx, xhi + padx
    ylo, yhi = ylo - pady, yhi + pady
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px_of(v):
        return _MARGIN_L + (math.log(v) - xlo) / (xhi - xlo) * plot_w

    def py_of(v):
        return _MARGIN_T + (yhi - math.log(v)) / (yhi - ylo) * plot_h

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d" font-family="monospace" font-size="12">'
               % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (_WIDTH, _HEIGHT))
    out.append('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
               'fill="none" stroke="#444"/>'
               % (_MARGIN_L, _MARGIN_T, plot_w, plot_h))
    out.append('<text x="%.1f" y="22" text-anchor="middle" '
               'font-size="14">%s</text>' % (_WIDTH / 2, _esc(title)))

    for v in _ticks(math.exp(xlo), math.exp(xhi)):
        x = px_of(v)
        out.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                   'stroke="#bbb" stroke-dasharray="3,3"/>'
                   % (x, _MARGIN_T, x, _MARGIN_T + plot_h))
        out.append('<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>'
                   % (x, _MARGIN_T + plot_h + 18, _esc("%.3g" % v)))
    for v in _ticks(math.exp(ylo), math.exp(yhi)):
        y = py_of(v)
        out.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                   'stroke="#bbb" stroke-dasharray="3,3"/>'
                   % (_MARGIN_L, y, _MARGIN_L + plot_w, y))
        out.append('<text x="%.1f" y="%.1f" text-anchor="end">%s</text>'
                   % (_MARGIN_L - 6, y + 4, _esc("%.3g" % v)))
    out.append('<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>'
               % (_MARGIN_L + plot_w / 2, _HEIGHT - 12, _esc(xlabel)))
    out.append('<text x="16" y="%.1f" text-anchor="middle" '
               'transform="rotate(-90 16 %.1f)">%s</text>'
               % (_MARGIN_T + plot_h / 2, _MARGIN_T + plot_h / 2, _esc(ylabel)))

    coords = ["%.2f,%.2f" % (px_of(px), py_of(py)) for px, py in pts]
    out.append('<polyline points="%s" fill="none" stroke="%s" '
               'stroke-width="1.6"/>' % (" ".join(coords), _COLOR))
    for px, py in pts:
        out.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>'
                   % (px_of(px), py_of(py), _COLOR))
    ly = _MARGIN_T + 16
    out.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
               'stroke="%s" stroke-width="1.6"/>'
               % (_MARGIN_L + plot_w - 150, ly - 4,
                  _MARGIN_L + plot_w - 126, ly - 4, _COLOR))
    out.append('<text x="%.1f" y="%.1f">%s</text>'
               % (_MARGIN_L + plot_w - 120, ly, _esc(label)))
    out.append("</svg>")
    return "\n".join(out) + "\n"
