"""Text file formats for the command line: spaces, towers, sheaves,
operators.

Every format is line oriented; blank lines and lines starting with '#'
are skipped.  Parse errors carry path:line:column.  Only space files
are printed: print_space emits the canonical form (sorted labels
everywhere), and parsing a canonical space file and printing it back
is byte identical.  Tower, sheaf and operator files are only read.

Space file:

    space <name> <n>
    elements <label> ... <label>
    uniformity symmetric|asymmetric        (optional)
    entourage <name>                       (zero or more sections)
    pair <a> <b>
    end
    covering <name>                        (zero or more sections)
    block <label> ... <label>
    end
    open <label> ... <label>               (zero or more; bare `open`
                                            is the empty set)
    dense <label> ... <label>              (optional)

Tower file: one declaration line

    tower <generator> depth=<N> [p=<prime>] [space=<path>]

Sheaf file: the poset by its covering edges, stalk dimensions, one
row-major rational matrix per edge (rows = target stalk dimension):

    sheaf <name>
    point <label> dim=<d>
    edge <x> <y> <entry> ... <entry>

Operator file: coefficient lines in a minimal arithmetic grammar over
z and integer literals (e^-k is the reciprocal power 1/e^k), and the
singular set:

    a_<i> = <expr>
    Z = {<point>, ..., inf}
    regular_at_infinity = true             (optional)
"""

from fractions import Fraction

from .dmod import ConnectionSpec, DiffOp
from .gtop import DensePair, PosetSheaf
from .poly import Polynomial, RatFunc
from .quniform import CoveringFamily, QUniformity
from .relations import FiniteSet, Relation
from .topology import FiniteTopology


class FormatError(ValueError):
    """Parse failure with position; str() is path:line:col: message."""

    def __init__(self, path, line, col, message):
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        super().__init__("%s:%d:%d: %s" % (path, line, col, message))


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        yield lineno, raw


def _tokens(raw):
    """(column, token) pairs, whitespace split, 1-based columns."""
    out = []
    col = None
    for i, ch in enumerate(raw):
        if ch.isspace():
            if col is not None:
                out.append((col + 1, raw[col:i]))
                col = None
        elif col is None:
            col = i
    if col is not None:
        out.append((col + 1, raw[col:]))
    return out


# space files


class SpaceFile:
    """Parsed space file; semantic objects are built on demand so a
    file can carry any mix of the structure sections."""

    __slots__ = ("name", "labels", "symmetric", "entourages", "coverings",
                 "opens", "dense")

    def __init__(self, name, labels, symmetric=None, entourages=(),
                 coverings=(), opens=None, dense=None):
        self.name = name
        self.labels = tuple(labels)
        self.symmetric = symmetric
        self.entourages = tuple((n, tuple(ps)) for n, ps in entourages)
        self.coverings = tuple((n, tuple(tuple(b) for b in bs))
                               for n, bs in coverings)
        self.opens = None if opens is None else tuple(
            tuple(o) for o in opens)
        self.dense = None if dense is None else tuple(dense)

    @property
    def base(self):
        return FiniteSet(self.labels)

    def uniformity(self):
        if not self.entourages:
            raise ValueError("empty basis")
        base = self.base
        rels = [Relation.from_pairs(base, ps) for _, ps in self.entourages]
        return QUniformity(base, rels, symmetric_flag=bool(self.symmetric))

    def covering_family(self):
        if not self.coverings:
            raise ValueError("no covering sections")
        return CoveringFamily.from_coverings(
            self.base, [bs for _, bs in self.coverings])

    def topology(self):
        if self.opens is None:
            raise ValueError("no open sections")
        base = self.base
        full = (1 << len(base)) - 1
        masks = {base.mask_of(o) for o in self.opens}
        masks |= {0, full}
        return FiniteTopology(base, masks)

    def dense_pair(self):
        if self.dense is None:
            raise ValueError("no dense section")
        return DensePair(self.topology(), self.dense)

    @classmethod
    def from_uniformity(cls, name, u):
        ents = []
        for i, e in enumerate(sorted(u.basis, key=lambda r: r.rows)):
            ents.append(("E%d" % (i + 1), sorted(e.pairs)))
        return cls(name, sorted(u.base.labels),
                   symmetric=u.symmetric_flag, entourages=ents)

    @classmethod
    def from_covering_family(cls, name, fam):
        covs = []
        for i, cov in enumerate(fam.coverings):
            blocks = sorted(tuple(sorted(b)) for b in cov)
            covs.append(("C%d" % (i + 1), blocks))
        return cls(name, sorted(fam.base.labels), coverings=covs)

    @classmethod
    def from_topology(cls, name, top, dense=None):
        opens = sorted((tuple(sorted(top.base.labels_of(m)))
                        for m in top.open_masks),
                       key=lambda o: (len(o), o))
        return cls(name, sorted(top.base.labels), opens=opens,
                   dense=None if dense is None else sorted(dense))


def parse_space(text, path="<space>"):
    name = None
    count = None
    labels = None
    symmetric = None
    entourages = []
    coverings = []
    opens = []
    saw_open = False
    dense = None
    section = None  # (kind, name, items, lineno)

    def fail(lineno, col, msg):
        raise FormatError(path, lineno, col, msg)

    def check_labels(lineno, toks):
        for col, t in toks:
            if t not in label_set:
                fail(lineno, col, "unknown element label %r" % t)
        return tuple(t for _, t in toks)

    label_set = set()
    for lineno, raw in _content_lines(text):
        toks = _tokens(raw)
        col0, head = toks[0]
        rest = toks[1:]
        if name is None:
            if head != "space":
                fail(lineno, col0, "expected the `space` header")
            if len(rest) != 2:
                fail(lineno, col0, "header is `space <name> <n>`")
            name = rest[0][1]
            try:
                count = int(rest[1][1])
            except ValueError:
                fail(lineno, rest[1][0], "element count must be an integer")
            if count < 1:
                fail(lineno, rest[1][0], "element count must be positive")
            continue
        if labels is None:
            if head != "elements":
                fail(lineno, col0, "expected the `elements` line")
            if len(rest) != count:
                fail(lineno, col0, "expected %d labels, got %d"
                     % (count, len(rest)))
            labels = tuple(t for _, t in rest)
            label_set = set(labels)
            if len(label_set) != count:
                fail(lineno, col0, "duplicate element label")
            continue
        if section is not None:
            kind, sname, items, sline = section
            if head == "end":
                if rest:
                    fail(lineno, rest[0][0], "end takes no arguments")
                if not items:
                    fail(lineno, col0, "empty %s section" % kind)
                (entourages if kind == "entourage" else coverings).append(
                    (sname, items))
                section = None
                continue
            if kind == "entourage":
                if head != "pair":
                    fail(lineno, col0,
                         "entourage sections hold `pair` lines")
                if len(rest) != 2:
                    fail(lineno, col0, "a pair is two labels")
                items.append(check_labels(lineno, rest))
            else:
                if head != "block":
                    fail(lineno, col0,
                         "covering sections hold `block` lines")
                if not rest:
                    fail(lineno, col0, "a block needs at least one label")
                items.append(check_labels(lineno, rest))
            continue
        if head == "uniformity":
            if len(rest) != 1 or rest[0][1] not in ("symmetric",
                                                    "asymmetric"):
                fail(lineno, col0,
                     "uniformity line is `uniformity symmetric|asymmetric`")
            symmetric = rest[0][1] == "symmetric"
        elif head in ("entourage", "covering"):
            if len(rest) != 1:
                fail(lineno, col0, "%s section needs a name" % head)
            section = (head, rest[0][1], [], lineno)
        elif head == "open":
            saw_open = True
            opens.append(check_labels(lineno, rest))
        elif head == "dense":
            if dense is not None:
                fail(lineno, col0, "duplicate dense line")
            if not rest:
                fail(lineno, col0, "dense needs at least one label")
            dense = check_labels(lineno, rest)
        else:
            fail(lineno, col0, "unknown directive %r" % head)
    if name is None:
        fail(1, 1, "missing `space` header")
    if labels is None:
        fail(1, 1, "missing `elements` line")
    if section is not None:
        fail(section[3], 1, "unterminated %s section" % section[0])
    return SpaceFile(name, labels, symmetric=symmetric,
                     entourages=entourages, coverings=coverings,
                     opens=opens if saw_open else None, dense=dense)


def print_space(sf):
    out = ["space %s %d" % (sf.name, len(sf.labels)),
           "elements %s" % " ".join(sorted(sf.labels))]
    if sf.symmetric is not None:
        out.append("uniformity %s"
                   % ("symmetric" if sf.symmetric else "asymmetric"))
    for ename, pairs in sorted(sf.entourages):
        out.append("entourage %s" % ename)
        for a, b in sorted(pairs):
            out.append("pair %s %s" % (a, b))
        out.append("end")
    for cname, blocks in sorted(sf.coverings):
        out.append("covering %s" % cname)
        for b in sorted(tuple(sorted(x)) for x in blocks):
            out.append("block %s" % " ".join(b))
        out.append("end")
    if sf.opens is not None:
        lines = sorted((tuple(sorted(o)) for o in sf.opens),
                       key=lambda o: (len(o), o))
        for o in lines:
            out.append(("open %s" % " ".join(o)) if o else "open")
    if sf.dense is not None:
        out.append("dense %s" % " ".join(sorted(sf.dense)))
    return "\n".join(out) + "\n"


# tower files

# parameters only some generators take, and which
_GENERATOR_PARAMS = {"p": ("padic_disk", "formal"), "space": ("finite",)}


def parse_tower(text, path="<tower>"):
    decl = None
    for lineno, raw in _content_lines(text):
        if decl is not None:
            raise FormatError(path, lineno, 1,
                              "tower files hold a single declaration")
        toks = _tokens(raw)
        col0, head = toks[0]
        if head != "tower":
            raise FormatError(path, lineno, col0,
                              "expected the `tower` declaration")
        if len(toks) < 2:
            raise FormatError(path, lineno, col0,
                              "declaration is `tower <generator> depth=<N>`")
        decl = {"generator": toks[1][1], "depth": None, "p": None,
                "space": None}
        for col, t in toks[2:]:
            if "=" not in t:
                raise FormatError(path, lineno, col,
                                  "parameters are key=value")
            key, _, val = t.partition("=")
            if key in _GENERATOR_PARAMS and \
                    decl["generator"] not in _GENERATOR_PARAMS[key]:
                raise FormatError(path, lineno, col,
                                  "generator %s takes no %s= parameter"
                                  % (decl["generator"], key))
            if key in ("depth", "p"):
                try:
                    decl[key] = int(val)
                except ValueError:
                    raise FormatError(path, lineno, col,
                                      "%s must be an integer" % key)
            elif key == "space":
                decl["space"] = val
            else:
                raise FormatError(path, lineno, col,
                                  "unknown parameter %r" % key)
        if decl["depth"] is None:
            raise FormatError(path, lineno, col0, "depth is required")
    if decl is None:
        raise FormatError(path, 1, 1, "missing `tower` declaration")
    return decl


# rational numbers and expressions


def parse_rational(tok, path, lineno, col):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise FormatError(path, lineno, col, "bad rational %r" % tok)


class _ExprParser:
    """Recursive descent over + - * / ^ ( ) z and integer literals."""

    def __init__(self, raw, path, lineno, start):
        self.toks = []
        i = start
        while i < len(raw):
            ch = raw[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(raw) and raw[j].isdigit():
                    j += 1
                self.toks.append((i + 1, raw[i:j]))
                i = j
            elif ch in "+-*/^()z":
                self.toks.append((i + 1, ch))
                i += 1
            else:
                raise FormatError(path, lineno, i + 1,
                                  "unexpected character %r" % ch)
        self.pos = 0
        self.path = path
        self.lineno = lineno
        self.end_col = len(raw) + 1

    def fail(self, msg):
        col = (self.toks[self.pos][0] if self.pos < len(self.toks)
               else self.end_col)
        raise FormatError(self.path, self.lineno, col, msg)

    def peek(self):
        return self.toks[self.pos][1] if self.pos < len(self.toks) else None

    def take(self):
        t = self.toks[self.pos][1]
        self.pos += 1
        return t

    def parse(self):
        v = self.expr()
        if self.pos != len(self.toks):
            self.fail("trailing tokens after expression")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                v = v + self.term()
            else:
                v = v - self.term()
        return v

    def term(self):
        v = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                v = v * self.unary()
            else:
                w = self.unary()
                if w.is_zero():
                    self.fail("division by zero")
                v = v / w
        return v

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            t = self.peek()
            if t is None or not t.isdigit():
                self.fail("exponent must be an integer literal")
            k = int(self.take())
            if neg and v.is_zero():
                self.fail("division by zero")
            v = v ** (-k if neg else k)
        return v

    def atom(self):
        t = self.peek()
        if t is None:
            self.fail("expected a value")
        if t == "(":
            self.take()
            v = self.expr()
            if self.peek() != ")":
                self.fail("expected )")
            self.take()
            return v
        if t == "z":
            self.take()
            return RatFunc.variable()
        if t.isdigit():
            return RatFunc.const(int(self.take()))
        self.fail("expected a value")


def parse_expression(raw, path="<expr>", lineno=1, start=0):
    return _ExprParser(raw, path, lineno, start).parse()


def format_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            zpow = "z" if k == 1 else "z^%d" % k
            body = zpow if abs(c) == 1 else "%s*%s" % (abs(c), zpow)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def format_ratfunc(f):
    if f.den.degree == 0 and f.den.coeffs[0] == 1:
        return format_poly(f.num)
    return "(%s)/(%s)" % (format_poly(f.num), format_poly(f.den))


# operator files


def parse_operator(text, path="<operator>"):
    coeffs = {}
    z_points = None
    inf_regular = False
    for lineno, raw in _content_lines(text):
        toks = _tokens(raw)
        col0, head = toks[0]
        if len(toks) < 2 or toks[1][1] != "=":
            raise FormatError(path, lineno, col0,
                              "lines are `<key> = <value>`")
        eq_col = toks[1][0]
        if head == "Z":
            if z_points is not None:
                raise FormatError(path, lineno, col0, "duplicate Z line")
            body = raw[eq_col:].strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise FormatError(path, lineno, eq_col + 2,
                                  "Z is a brace-enclosed list")
            inner = body[1:-1].strip()
            z_points = []
            if inner:
                for piece in inner.split(","):
                    piece = piece.strip()
                    if not piece:
                        raise FormatError(path, lineno, eq_col,
                                          "empty entry in Z")
                    if piece == "inf":
                        z_points.append("inf")
                    else:
                        z_points.append(parse_rational(
                            piece, path, lineno, eq_col))
        elif head == "regular_at_infinity":
            val = raw[eq_col:].strip()
            if val not in ("true", "false"):
                raise FormatError(path, lineno, eq_col,
                                  "regular_at_infinity is true or false")
            inf_regular = val == "true"
        elif head.startswith("a_"):
            try:
                idx = int(head[2:])
            except ValueError:
                raise FormatError(path, lineno, col0,
                                  "coefficient keys look like a_0, a_1, ...")
            if idx < 0:
                raise FormatError(path, lineno, col0,
                                  "coefficient index must be nonnegative")
            if idx in coeffs:
                raise FormatError(path, lineno, col0,
                                  "duplicate coefficient a_%d" % idx)
            coeffs[idx] = parse_expression(raw, path, lineno, eq_col)
        else:
            raise FormatError(path, lineno, col0,
                              "unknown key %r" % head)
    if not coeffs:
        raise FormatError(path, 1, 1, "no coefficient lines")
    if z_points is None:
        raise FormatError(path, 1, 1, "missing Z line")
    order = max(coeffs)
    cs = [coeffs.get(i, RatFunc(0)) for i in range(order + 1)]
    return ConnectionSpec(DiffOp(cs), z_points,
                          infinity_regular=inf_regular)


# sheaf files


def parse_sheaf(text, path="<sheaf>"):
    name = None
    dims = {}
    edges = {}
    order = []
    for lineno, raw in _content_lines(text):
        toks = _tokens(raw)
        col0, head = toks[0]
        rest = toks[1:]
        if name is None:
            if head != "sheaf" or len(rest) != 1:
                raise FormatError(path, lineno, col0,
                                  "expected the `sheaf <name>` header")
            name = rest[0][1]
            continue
        if head == "point":
            if len(rest) != 2 or not rest[1][1].startswith("dim="):
                raise FormatError(path, lineno, col0,
                                  "point lines are `point <label> dim=<d>`")
            lab = rest[0][1]
            if lab in dims:
                raise FormatError(path, lineno, rest[0][0],
                                  "duplicate point %r" % lab)
            try:
                d = int(rest[1][1][4:])
            except ValueError:
                raise FormatError(path, lineno, rest[1][0],
                                  "dim must be an integer")
            if d < 0:
                raise FormatError(path, lineno, rest[1][0],
                                  "dim must be nonnegative")
            dims[lab] = d
            order.append(lab)
        elif head == "edge":
            if len(rest) < 2:
                raise FormatError(path, lineno, col0,
                                  "edge lines are `edge <x> <y> <entries>`")
            x, y = rest[0][1], rest[1][1]
            for col, lab in (rest[0], rest[1]):
                if lab not in dims:
                    raise FormatError(path, lineno, col,
                                      "unknown point %r" % lab)
            if (x, y) in edges:
                raise FormatError(path, lineno, col0,
                                  "duplicate edge %s %s" % (x, y))
            want = dims[y] * dims[x]
            entries = rest[2:]
            if len(entries) != want:
                raise FormatError(path, lineno, col0,
                                  "edge %s %s needs %d entries, got %d"
                                  % (x, y, want, len(entries)))
            vals = [parse_rational(t, path, lineno, c) for c, t in entries]
            edges[(x, y)] = vals
        else:
            raise FormatError(path, lineno, col0,
                              "unknown directive %r" % head)
    if name is None:
        raise FormatError(path, 1, 1, "missing `sheaf` header")
    if not dims:
        raise FormatError(path, 1, 1, "no point lines")
    labels = tuple(sorted(order))
    base = FiniteSet(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    rows = [1 << i for i in range(len(labels))]
    for (x, y) in edges:
        rows[idx[x]] |= 1 << idx[y]
    rel = Relation(base, rows).reflexive_transitive_closure()
    top = FiniteTopology.from_preorder(rel)
    dim_list = [dims[lab] for lab in labels]
    mats = {}
    for (x, y), vals in edges.items():
        i, j = idx[x], idx[y]
        r, c = dims[y], dims[x]
        mats[(i, j)] = [vals[k * c:(k + 1) * c] for k in range(r)]
    return name, PosetSheaf(top, dim_list, mats)
