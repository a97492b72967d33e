"""Static SVG pictures of additivity paintings on the 1/q grid.

One drawing convention, no options: the unit square at 1/q spacing, one
group element per grid cell holding its two triangles and any green edges
and corner vertex, painted faces filled by the connected component they
merge intervals into.  The output is deterministic down to the byte so
diagrams can be diffed and cached.
"""

from .complex2d import (
    DEDGE,
    GREEN,
    GREY,
    HEDGE,
    LOWER,
    UPPER,
    VEDGE,
    VERTEX,
    Face,
    IntervalUnion,
    Painting,
    interval_projections,
    painting_from_function,
)
from .grid_functions import GridFunction

__all__ = ["render_2d_diagram"]

_CELL = 40
_MARGIN = 14

# first entry doubles as the color of a lone component, so keep it a dark
# green; the rest just need to stay far apart from each other
_PALETTE = (
    "#1b5e20",
    "#1565c0",
    "#e65100",
    "#6a1b9a",
    "#c62828",
    "#00838f",
    "#f9a825",
    "#4e342e",
    "#37474f",
    "#283593",
)

_FILL_WHITE = "#ffffff"
_FILL_GREY = "#ececec"
_GRID_STROKE = "#9e9e9e"
_DIAGONAL_STROKE = "#d32f2f"


def _interval_groups(painting):
    """Interval components of the green faces, without validation.

    Merges like covered_components but tolerates paintings that break the
    corner-inclusion rule, which a picture should display rather than
    reject. Intervals no green face projects onto never ask for a fill, so
    only the touched components consume palette slots.
    """
    union = IntervalUnion(painting.q)
    touched = set()
    for face in painting.green_faces():
        touched.update(interval_projections(face, painting.q))
        union.add_face(face)
    parts = [members & touched
             for members, _ in union.partition().components()]
    return {z: idx for idx, part in enumerate(p for p in parts if p)
            for z in part}


def _face_fill(painting, face, groups):
    color = painting.color(face)
    if color == GREEN:
        spans = interval_projections(face, painting.q)
        if spans:
            return _PALETTE[groups[spans[0]] % len(_PALETTE)]
        return _PALETTE[0]
    if color == GREY:
        return _FILL_GREY
    return _FILL_WHITE


def render_2d_diagram(source, q=None, output=None):
    """Draw a grid function's painting, or a painting itself, as SVG 1.1.

    Grid lines sit at 1/q spacing, each cell contributes one group with
    its lower and upper triangle, green edges are drawn as strokes and
    green vertices as dots, all tinted by interval component.  For a grid
    function the two reflection diagonals x + y = f/q (mod 1) are dashed;
    a bare painting carries no f and gets none.  Returns the SVG text and
    writes it to ``output`` when a path is given.
    """
    if isinstance(source, GridFunction):
        painting = painting_from_function(source)
        f_index = source.f_index
    elif isinstance(source, Painting):
        painting = source
        f_index = None
    else:
        raise TypeError("expected a GridFunction or a Painting, got %r"
                        % type(source).__name__)
    if q is None:
        q = painting.q
    elif q != painting.q:
        raise ValueError("q=%r disagrees with the painting's grid %d"
                         % (q, painting.q))

    groups = _interval_groups(painting)
    side = q * _CELL + 2 * _MARGIN

    def px(gx, gy):
        return (_MARGIN + gx * _CELL, _MARGIN + (q - gy) * _CELL)

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               'width="%d" height="%d" viewBox="0 0 %d %d">'
               % (side, side, side, side))
    out.append('<rect x="0" y="0" width="%d" height="%d" fill="#fafafa"/>'
               % (side, side))

    out.append('<g class="cells">')
    for x in range(q):
        for y in range(q):
            cell = ['<g class="cell" id="cell_%d_%d">' % (x, y)]
            ax, ay = px(x, y)
            bx, by = px(x, y + 1)
            cx, cy = px(x + 1, y)
            dx, dy = px(x + 1, y + 1)
            lower = Face(LOWER, x, y)
            upper = Face(UPPER, x, y)
            cell.append(
                '<polygon class="lower" points="%d,%d %d,%d %d,%d" '
                'fill="%s"/>' % (ax, ay, cx, cy, bx, by,
                                 _face_fill(painting, lower, groups)))
            cell.append(
                '<polygon class="upper" points="%d,%d %d,%d %d,%d" '
                'fill="%s"/>' % (bx, by, dx, dy, cx, cy,
                                 _face_fill(painting, upper, groups)))
            for kind, x1, y1, x2, y2 in ((HEDGE, ax, ay, cx, cy),
                                         (VEDGE, ax, ay, bx, by),
                                         (DEDGE, bx, by, cx, cy)):
                face = Face(kind, x, y)
                if painting.color(face) == GREEN:
                    cell.append(
                        '<line class="edge" x1="%d" y1="%d" x2="%d" y2="%d" '
                        'stroke="%s" stroke-width="3"/>'
                        % (x1, y1, x2, y2, _face_fill(painting, face, groups)))
            if painting.color(Face(VERTEX, x, y)) == GREEN:
                cell.append('<circle class="dot" cx="%d" cy="%d" r="%d" '
                            'fill="%s"/>' % (ax, ay, _CELL // 8, _PALETTE[0]))
            cell.append('</g>')
            out.append("".join(cell))
    out.append('</g>')

    out.append('<g class="grid">')
    for i in range(q + 1):
        x0, y0 = px(i, 0)
        x1, y1 = px(i, q)
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                   'stroke-width="1"/>' % (x0, y0, x1, y1, _GRID_STROKE))
        x0, y0 = px(0, i)
        x1, y1 = px(q, i)
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
                   'stroke-width="1"/>' % (x0, y0, x1, y1, _GRID_STROKE))
    out.append('</g>')

    if f_index is not None:
        out.append('<g class="diagonals">')
        for offset in (f_index, f_index + q):
            hi = min(offset, q)
            lo = max(0, offset - q)
            if lo <= hi:
                x1, y1 = px(lo, offset - lo)
                x2, y2 = px(hi, offset - hi)
                out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                           'stroke="%s" stroke-width="2" '
                           'stroke-dasharray="6,4"/>'
                           % (x1, y1, x2, y2, _DIAGONAL_STROKE))
        out.append('</g>')

    out.append('</svg>')
    text = "\n".join(out) + "\n"
    if output is not None:
        with open(output, "w") as handle:
            handle.write(text)
    return text
