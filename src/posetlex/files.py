"""Reading and writing the one-poset-per-file text format.

Format: the first meaningful line is ``n <count>``; then either ``rel a b``
lines (meaning a < b) or a single ``perm v1 ... vn`` line, never both.
Lines starting with ``#`` and blank lines are ignored.  A text is read in
one pass; a malformed line raises FormatError naming it (``line 3: ...``),
and so do a ``perm`` line with a repeated value and the ``rel`` line that
closes a cycle.  An ``n`` line above ``MAX_ELEMENTS`` raises SizeCapError
naming it, before any later line is read.
"""

from .errors import CycleError, DuplicateValueError, PosetError, SizeCapError
from .poset import MAX_ELEMENTS, Poset


class FormatError(PosetError):
    """Malformed poset file."""


def _int(field, lineno):
    """The integer ``field``, or FormatError naming line ``lineno``."""
    try:
        return int(field)
    except ValueError:
        raise FormatError(f"line {lineno}: expected an integer, got {field!r}") from None


def loads(text):
    n = None
    pairs = []
    perm = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "n":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate n line")
            if len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'n <count>'")
            n = _int(fields[1], lineno)
            if n < 1:
                raise FormatError(f"line {lineno}: expected a count of at least 1, got {n}")
            if n > MAX_ELEMENTS:
                raise SizeCapError(f"line {lineno}: poset size {n} exceeds cap {MAX_ELEMENTS}")
        elif n is None:
            raise FormatError(f"line {lineno}: expected 'n <count>' first, got {tag!r}")
        elif tag == "rel":
            if perm is not None:
                raise FormatError(f"line {lineno}: rel after perm")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'rel a b'")
            a, b = _int(fields[1], lineno), _int(fields[2], lineno)
            if not (0 <= a < n and 0 <= b < n):
                raise FormatError(f"line {lineno}: relation ({a},{b}) out of range for n={n}")
            pairs.append((a, b))
        elif tag == "perm":
            if pairs or perm is not None:
                raise FormatError(f"line {lineno}: perm mixed with rel")
            perm = [_int(v, lineno) for v in fields[1:]]
            if len(perm) != n:
                raise FormatError(f"line {lineno}: perm has {len(perm)} values, expected {n}")
        else:
            raise FormatError(f"line {lineno}: unknown tag {tag!r}")
    if n is None:
        raise FormatError("missing 'n' line")
    try:
        if perm is not None:
            return Poset.from_permutation(perm)
        return Poset.from_relations(n, pairs)
    except (CycleError, DuplicateValueError) as exc:
        raise FormatError(f"line {_culprit(text, n)}: {exc}") from None


def _culprit(text, n):
    """The line at which a text that ``loads`` parsed stops being a poset.

    That is its ``perm`` line, or the first ``rel`` line at which the
    relations read so far close a cycle.  Called only on that error, so
    the text is read again rather than every line number kept.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tag, *fields = raw.split() or [""]
        if tag == "perm":
            return lineno
        if tag == "rel":
            pairs.append(tuple(map(int, fields)))
            try:
                Poset.from_relations(n, pairs)
            except CycleError:
                return lineno


def dumps(poset, comment=None):
    lines = [f"# {row}" for row in (comment or "").splitlines()]
    lines.append(f"n {poset.n}")
    lines += (f"rel {a} {b}" for a, b in poset.covers())
    return "\n".join(lines) + "\n"


def load(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return loads(handle.read())
        except PosetError as exc:  # a malformed file, or a cycle in its relations
            raise type(exc)(f"{path}: {exc}") from exc


def dump(poset, path, comment=None):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(poset, comment))
