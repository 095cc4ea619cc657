"""Scalar fields on coordinate charts.

Expressions are immutable trees over chart coordinates with exact symbolic
differentiation. There is no algebraic simplification beyond constant folding
and the 0/1 identities, so correctness rests on evaluation, not on canonical
form. Derivatives are cached per node, which keeps repeated differentiation
of shared subtrees cheap and keeps derivative trees compact DAGs.

Two evaluators share one set of domain rules: `evaluate` interprets a tree
at one point, and `compile_tape` turns a list of trees into a tape that
`Tape.run` evaluates over a whole array of points with numpy; the error at
a failing point comes from the interpreter, run on the failing node
(`Sweep.error`). `parse_expr` expands a named function by substitution, so
every tree reads chart coordinates only. A caller that needs first and
second partials takes them from `Tape.jet_sweep`, which propagates value,
gradient and Hessian through the tape of its (small) input trees in one
pass (Griewank and Walther, Evaluating Derivatives, 2008, ch. 13); where
those jets are not finite, the `diff` trees of the inputs give them or name
the error (`Sweep.repair`). One table, _UNARY, gives each unary operation
its float rule, its ufunc and its derivative rule. Tree walks that may meet
deep trees (evaluation, differentiation, substitution, printing, tape
compilation) keep their own stack instead of recursing.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = [
    "Chart",
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "Jet2",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "powc",
    "apply_unary",
    "parse_expr",
    "format_expr",
    "diff",
    "evaluate",
    "Tape",
    "Sweep",
    "compile_tape",
    "eval_jet2",
    "fd_oracle",
    "free_vars",
    "substitute",
]


# --- charts -----------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A coordinate box: names, per-axis closed intervals, optional blocks.

    Blocks partition the coordinate indices. Block 0 may be empty (a net with
    no distinguished base block); every other block must be nonempty.
    """

    dim: int
    names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        if len(self.names) != self.dim or len(set(self.names)) != self.dim:
            raise ValueError("chart needs dim unique coordinate names")
        if len(self.domain) != self.dim:
            raise ValueError("chart needs one interval per coordinate")
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate interval [{lo}, {hi}]")
        if self.blocks is not None:
            flat = [i for b in self.blocks for i in b]
            if sorted(flat) != list(range(self.dim)):
                raise ValueError("blocks must partition the coordinate indices")
            for b in self.blocks[1:]:
                if not b:
                    raise ValueError("only block 0 may be empty")

    @staticmethod
    def box(domain, names=None, blocks=None) -> "Chart":
        dom = tuple((float(lo), float(hi)) for lo, hi in domain)
        dim = len(dom)
        if names is None:
            names = tuple(f"x{i}" for i in range(dim))
        blk = None if blocks is None else tuple(tuple(b) for b in blocks)
        return Chart(dim, tuple(names), dom, blk)

    def contains(self, point) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self.domain))

    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (lo + hi) for lo, hi in self.domain)


# --- expression nodes -------------------------------------------------------


class Expr:
    """Expression node, immutable by convention: each subclass constructor
    calls Expr.__init__ and assigns its slots directly, and after it only
    diff rebinds one, giving _dcache a dict of its own at the first cached
    partial. Identity-hashed; derivative results are memoized per (node,
    coordinate index) in _dcache, which starts as the shared _NO_PARTIALS.
    Every node passes through Expr.__init__, which bench/layertrace.py
    wraps to count the nodes built."""

    __slots__ = ("_dcache",)

    def __init__(self):
        self._dcache = _NO_PARTIALS

    def __repr__(self):
        return f"<Expr {format_expr(self)}>"


# the derivative cache of every node until its first partial is cached: most
# nodes are never differentiated, and a dict each doubled the objects the
# garbage collector tracks per node
_NO_PARTIALS = types.MappingProxyType({})


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        super().__init__()
        self.value = float(value)


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        super().__init__()
        self.index = int(index)


class Unary(Expr):
    __slots__ = ("op", "arg")

    def __init__(self, op: str, arg: Expr):
        super().__init__()
        self.op = op
        self.arg = arg


class Binary(Expr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr):
        super().__init__()
        self.op = op
        self.a = a
        self.b = b


class Power(Expr):
    """Base raised to a constant exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: float):
        super().__init__()
        self.base = base
        self.exponent = float(exponent)


ZERO = Const(0.0)
ONE = Const(1.0)


# --- smart constructors (constant folding + 0/1 identities only) ------------


def const(value: float) -> Const:
    if value == 0.0:
        return ZERO
    if value == 1.0:
        return ONE
    return Const(value)


def var(index: int) -> Var:
    return Var(index)


def _cval(e: Expr):
    return e.value if isinstance(e, Const) else None


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _cval(a), _cval(b)
    if ca is not None and cb is not None:
        return const(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _cval(a), _cval(b)
    if ca is not None and cb is not None:
        return const(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _cval(a), _cval(b)
    if ca is not None and cb is not None:
        return const(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return ZERO
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _cval(a), _cval(b)
    if cb is not None and cb != 0.0:
        if ca is not None:
            return const(ca / cb)
        if cb == 1.0:
            return a
    if ca == 0.0 and cb != 0.0:
        return ZERO
    return Binary("/", a, b)


def neg(a: Expr) -> Expr:
    ca = _cval(a)
    if ca is not None:
        return const(-ca)
    return Unary("neg", a)


def powc(base: Expr, exponent: float) -> Expr:
    exponent = float(exponent)
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return ONE
    cb = _cval(base)
    if cb is not None:
        try:
            return const(_pow_value(cb, exponent, None))
        except (EvalDomainError, OverflowError):
            pass
    return Power(base, exponent)


def apply_unary(op: str, arg: Expr) -> Expr:
    if op not in _UNARY:
        raise ValueError(f"unknown unary operation {op!r}")
    ca = _cval(arg)
    if ca is not None:
        try:
            return const(_unary_value(op, ca, None))
        except (EvalDomainError, OverflowError, ValueError):  # math.sin(inf) raises ValueError
            pass
    return Unary(op, arg)


def log(a: Expr) -> Expr:
    return apply_unary("log", a)


# --- evaluation -------------------------------------------------------------


def _raise_domain(message: str, e: Expr):
    raise EvalDomainError(message, format_expr(e))


def _unary_value(op: str, v: float, e: Expr | None) -> float:
    if op not in _UNARY:
        raise ValueError(f"unknown unary operation {op!r}")
    if op == "log" and v <= 0.0:
        _raise_domain("log of a nonpositive value", e if e else ZERO)
    if op == "sqrt" and v < 0.0:
        _raise_domain("sqrt of a negative value", e if e else ZERO)
    try:
        return _UNARY[op][0](v)
    except OverflowError:
        _raise_domain("overflow", e if e else ZERO)


def _pow_value(b: float, c: float, e: Expr | None) -> float:
    if b == 0.0 and c < 0.0:
        _raise_domain("zero raised to a negative power", e if e else ZERO)
    if b < 0.0 and c != int(c):
        _raise_domain("fractional power of a negative base", e if e else ZERO)
    try:
        out = math.pow(b, c)
    except OverflowError:
        _raise_domain("overflow in power", e if e else ZERO)
    return out


# the one table of unary operations: per op, its float rule (_unary_value
# checks the domains of log and sqrt first, and reads an OverflowError of
# math as an overflow), its numpy ufunc, and its derivative rule,
# d f(a) of a node e = f(a) from a, e and da. _diff applies the rule to
# trees, and the jet sweep reads f' and f'' off it (_UNARY_JETS). The parser
# reads every op but neg as a function name.
_UNARY = {
    "neg": (operator.neg, np.negative, lambda a, e, da: neg(da)),
    "exp": (math.exp, np.exp, lambda a, e, da: mul(e, da)),
    "log": (math.log, np.log, lambda a, e, da: div(da, a)),
    "sin": (math.sin, np.sin, lambda a, e, da: mul(apply_unary("cos", a), da)),
    "cos": (math.cos, np.cos, lambda a, e, da: neg(mul(apply_unary("sin", a), da))),
    "tan": (math.tan, np.tan, lambda a, e, da: div(da, powc(apply_unary("cos", a), 2.0))),
    "sinh": (math.sinh, np.sinh, lambda a, e, da: mul(apply_unary("cosh", a), da)),
    "cosh": (math.cosh, np.cosh, lambda a, e, da: mul(apply_unary("sinh", a), da)),
    "sqrt": (math.sqrt, np.sqrt, lambda a, e, da: div(da, mul(const(2.0), e))),
    "abs": (abs, np.absolute, lambda a, e, da: mul(div(e, a), da)),
}


def evaluate(e: Expr, point, cache: dict | None = None) -> float:
    """Evaluate at a point (sequence of floats). A shared cache dict makes
    evaluation of many expressions with common subtrees linear in the number
    of distinct nodes."""
    if cache is None:
        cache = {}
    return _eval(e, point, cache)


def _eval(e: Expr, point, cache: dict) -> float:
    """The value of e from an explicit stack: each node after its operands,
    left to right, in the post-order of a recursive walk, so the first node
    that fails is the one such a walk would fail on, and the depth of the
    tree is not bounded by the interpreter's recursion limit. The cache is
    keyed by the node itself: it must pin nodes alive, or a recycled
    address could hand a temporary expression another node's value."""
    stack = [e]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        pending = [c for c in _children(node) if c not in cache]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if isinstance(node, Const):
            out = node.value
        elif isinstance(node, Var):
            out = float(point[node.index])
        elif isinstance(node, Unary):
            out = _unary_value(node.op, cache[node.arg], node)
        elif isinstance(node, Binary):
            va, vb = cache[node.a], cache[node.b]
            if node.op == "+":
                out = va + vb
            elif node.op == "-":
                out = va - vb
            elif node.op == "*":
                out = va * vb
            else:
                if vb == 0.0:
                    _raise_domain("division by zero", node)
                out = va / vb
        elif isinstance(node, Power):
            out = _pow_value(cache[node.base], node.exponent, node)
        else:
            raise TypeError(f"unknown expression node {type(node).__name__}")
        if not math.isfinite(out):
            _raise_domain("non-finite value", node)
        cache[node] = out
    return cache[e]


# --- evaluation tapes ---------------------------------------------------------
#
# A tape is the straight-line program of a list of expressions (Griewank and
# Walther, Evaluating Derivatives, 2008): one slot per distinct node in the
# post-order that _eval visits, each evaluated once over a whole batch of
# points. Structurally equal nodes share a slot, so the first failing slot at
# a point is the node the interpreter would have failed on, and its error
# names the same sub-expression.

_UFUNC = {
    **{op: ufunc for op, (_, ufunc, _) in _UNARY.items()},
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}
# slot values evaluated at once; larger batches of points go in chunks
_CHUNK = 1 << 20
# values in a temporary block when slot rows are copied out or checked
_BLOCK = 1 << 12


@functools.cache
def _pairs(r: int, k: int) -> tuple:
    """The index pairs (a, b) with a + k <= b < r, row by row, as in
    np.triu_indices, as two read-only arrays (every caller shares them)."""
    ia, ib = np.triu_indices(r, k)
    ia.flags.writeable = ib.flags.writeable = False
    return ia, ib


class Tape:
    """Compiled roots, evaluated together over an (m, dim) array of points."""

    def __init__(self, nodes, instrs, root_slots, bounds):
        self.nodes = nodes  # per slot: the first expression node that reached it
        # per slot: ("const", value), ("var", index), (unary op, operand),
        # (binary op, operand, operand) or ("^", operand, exponent)
        self.instrs = instrs
        self.root_slots = np.array(root_slots, dtype=np.intp)
        # bounds[r]: number of slots first reached by the first r roots
        self.bounds = tuple(bounds)
        consts = [k for k, ins in enumerate(instrs) if ins[0] == "const"]
        coords = [k for k, ins in enumerate(instrs) if ins[0] == "var"]
        self._const_slots = np.array(consts, dtype=np.intp)
        self._const_values = np.array([instrs[k][1] for k in consts], dtype=float)
        self._var_slots = np.array(coords, dtype=np.intp)
        self._var_index = np.array([instrs[k][1] for k in coords], dtype=np.intp)
        self._ops = [(k, ins) for k, ins in enumerate(instrs) if ins[0] in _UFUNC]

    @property
    def size(self) -> int:
        return len(self.instrs)

    def _slot_values(self, points) -> np.ndarray:
        """(size, m) values of every slot; failures leave non-finite values.
        Callers ignore floating-point errors (np.errstate)."""
        V = np.empty((self.size, len(points)))
        V[self._const_slots] = self._const_values[:, None]
        V[self._var_slots] = points.T[self._var_index]
        for k, ins in self._ops:
            op = ins[0]
            if len(ins) == 2:
                _UFUNC[op](V[ins[1]], out=V[k])
            elif op == "^":
                np.power(V[ins[1]], ins[2], out=V[k])
            else:
                _UFUNC[op](V[ins[1]], V[ins[2]], out=V[k])
        return V

    def _slot_jets(self, points) -> np.ndarray:
        """(size, 1 + n + n(n+1)/2, m) jets of every slot over (m, n) points:
        its value, its gradient, and its Hessian upper triangle in
        np.triu_indices order, by second-order forward propagation. Value
        rows are those of _slot_values; failures leave non-finite values.
        A product with a constant slot, or a quotient by one, scales the
        whole jet by that constant in one ufunc call: where the jets are
        finite this is the product or quotient rule with the constant's
        partials zero. Callers ignore floating-point errors (np.errstate)."""
        m, n = points.shape
        iu, ju = _pairs(n, 0)
        J = np.zeros((self.size, 1 + n + len(iu), m))
        J[self._const_slots, 0] = self._const_values[:, None]
        J[self._var_slots, 0] = points.T[self._var_index]
        J[self._var_slots, 1 + self._var_index] = 1.0
        d1, d2 = slice(1, n + 1), slice(n + 1, None)
        instrs = self.instrs
        for k, ins in self._ops:
            op, a, out = ins[0], J[ins[1]], J[k]
            if op == "+" or op == "-":
                _UFUNC[op](a, J[ins[2]], out=out)
            elif (op == "*" or op == "/") and instrs[ins[2]][0] == "const":
                _UFUNC[op](a, instrs[ins[2]][1], out=out)
            elif op == "*" and instrs[ins[1]][0] == "const":
                np.multiply(instrs[ins[1]][1], J[ins[2]], out=out)
            elif op == "*" or op == "/":
                b = J[ins[2]]
                ga, gb = a[d1], b[d1]
                if op == "*":
                    np.multiply(a[0], b[0], out=out[0])
                    out[d1] = ga * b[0] + a[0] * gb
                    out[d2] = a[d2] * b[0] + a[0] * b[d2] + ga[iu] * gb[ju] + ga[ju] * gb[iu]
                else:
                    # the quotient q = a/b through a = q b
                    np.divide(a[0], b[0], out=out[0])
                    q = out[0]
                    gq = out[d1] = (ga - q * gb) / b[0]
                    out[d2] = (a[d2] - q * b[d2] - gq[iu] * gb[ju] - gq[ju] * gb[iu]) / b[0]
            else:
                if op == "^":
                    c = ins[2]
                    np.power(a[0], c, out=out[0])
                    f1 = c * np.power(a[0], c - 1.0)
                    f2 = c * (c - 1.0) * np.power(a[0], c - 2.0)
                else:
                    _UFUNC[op](a[0], out=out[0])
                    f1, f2 = _unary_jets(op, a[0])
                ga = a[d1]
                out[d1] = f1 * ga
                out[d2] = f1 * a[d2] + f2 * (ga[iu] * ga[ju])
        return J

    def sweep(self, points) -> "Sweep":
        """Evaluate the roots over an (m, dim) array without raising. Points
        go through in chunks of at most _CHUNK slot values."""
        return self._sweep(points, jets=False)

    def jet_sweep(self, points) -> "Sweep":
        """sweep, and the jets of the roots: Sweep.jets is (m, 1 + n +
        n(n+1)/2, roots), per point the values, the first partials d_p and
        the second partials d_p d_q over p <= q in np.triu_indices order,
        where n = dim. first_bad and error read the value rows only, so a
        value error is named as sweep names it; Sweep.repair mends a partial
        that is not finite. Chunks count the jet rows."""
        return self._sweep(points, jets=True)

    def _sweep(self, points, jets: bool) -> "Sweep":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (m, dim) array")
        n = pts.shape[1]
        width = 1 + n + n * (n + 1) // 2 if jets else 1
        step = max(1, _CHUNK // max(self.size * width, 1))
        m = len(pts)
        roots = self.root_slots
        out = np.empty((m, width, len(roots)))
        first_bad = np.empty(m, dtype=np.intp)
        with np.errstate(all="ignore"):
            for lo in range(0, m, step):
                chunk = slice(lo, lo + step)
                if jets:
                    S = self._slot_jets(pts[chunk])
                    V = S[:, 0]
                else:
                    V = self._slot_values(pts[chunk])
                    S = V[:, None]
                # a few rows at a time, so no full second copy of them is made
                rows = max(1, _BLOCK // max(S[0].size, 1))
                for a in range(0, len(roots), rows):
                    out[chunk, :, a : a + rows] = S[roots[a : a + rows]].transpose(2, 1, 0)
                first_bad[chunk] = _first_nonfinite(V)
        return Sweep(self, pts, out[:, 0], first_bad, out if jets else None)

    def run(self, points) -> np.ndarray:
        """(m, roots) values. Raises the EvalDomainError of the first sample
        that fails, naming the sub-expression the interpreter would name."""
        sw = self.sweep(points)
        _raise_first((sw.first_bad < self.size, sw.error))
        return sw.values

    def run_jets(self, points) -> np.ndarray:
        """The jets of jet_sweep, (m, 1 + n + n(n+1)/2, roots), mended by
        Sweep.repair. Raises at the first sample that fails: the error run
        raises there when a value fails, else that of the roots' diff trees."""
        sw = self.jet_sweep(points)
        errors = sw.repair()
        _raise_first((sw.first_bad < self.size, sw.error),
                     (_keys(errors, len(sw.points)), errors.get))
        return sw.jets


def _first(*masks) -> tuple | None:
    """(j, q): the first point j where any of the masks, each (m,), holds,
    and the first mask q that holds there; None where none holds. This is
    the one rule by which a batch picks the failure it reports: list the
    checks of a point in the order they run there."""
    hit = functools.reduce(np.logical_or, masks)
    if not hit.any():
        return None
    j = int(hit.argmax())
    return j, next(q for q, mask in enumerate(masks) if mask[j])


def _raise_first(*checks) -> None:
    """Raise at the first point where a check fails (_first): checks are
    (mask, error) pairs in the order they run at a point, and error(j)
    builds the exception of the first check that fails at point j."""
    hit = _first(*(mask for mask, _ in checks))
    if hit:
        raise checks[hit[1]][1](hit[0])


def _point(pts, j: int) -> tuple:
    """Sample j of pts as a tuple of floats: the one way a message or a
    warning names a sample."""
    return tuple(np.asarray(pts[j], dtype=float).tolist())


def _keys(errors: dict, m: int) -> np.ndarray:
    """The (m,) mask of the points that key errors, as Sweep.repair gives them."""
    mask = np.zeros(m, dtype=bool)
    mask[list(errors)] = True
    return mask


def _first_nonfinite(V: np.ndarray) -> np.ndarray:
    """Per column of V, the first row holding a non-finite value, or len(V).

    Every domain violation leaves a non-finite value in its own slot, and a
    column with one has a non-finite sum, so only those columns are searched,
    a block of rows at a time."""
    first = np.full(V.shape[1], len(V))
    cols = np.flatnonzero(~np.isfinite(V.sum(axis=0)))
    rows = max(1, _BLOCK // max(V.shape[1], 1))
    for lo in range(0, len(V), rows):
        if not cols.size:
            break
        bad = ~np.isfinite(V[lo : lo + rows, cols])
        hit = bad.any(axis=0)
        first[cols[hit]] = lo + bad.argmax(axis=0)[hit]
        cols = cols[~hit]
    return first


class Sweep:
    """Root values of one tape over a batch of points.

    first_bad[j] is the first slot, in evaluation order, that fails at point
    j, or tape.size where point j evaluates cleanly."""

    def __init__(self, tape: Tape, points: np.ndarray, values: np.ndarray, first_bad: np.ndarray,
                 jets: np.ndarray | None = None):
        self.tape = tape
        self.points = points
        self.values = values
        self.first_bad = first_bad
        self.jets = jets  # (m, 1 + n + n(n+1)/2, roots) from Tape.jet_sweep

    def error(self, j: int) -> EvalDomainError:
        """The error the interpreter raises at point j: the node of the first
        failing slot, evaluated by the interpreter from its operands' slot
        values, which are finite."""
        k = int(self.first_bad[j])
        node = self.tape.nodes[k]
        with np.errstate(all="ignore"):
            col = self.tape._slot_values(self.points[j : j + 1])[:, 0]
        # instrs[k][1:] starts with the operand slots, in the order of _children
        operands = {c: float(col[s]) for c, s in zip(_children(node), self.tape.instrs[k][1:])}
        try:
            _eval(node, self.points[j], operands)
            # numpy left a non-finite value where math did not
            _raise_domain("non-finite value", node)
        except EvalDomainError as e:
            return e

    def repair(self, roots: int | None = None, start: int = 0) -> dict:
        """Mend the jets of a jet sweep from the diff trees of its roots.

        At a point where the values of the first `roots` roots (all by
        default) are clean but the jets of some of those from root `start`
        on are not finite, those roots' diff trees are compiled, in the
        order of the jet rows (the roots, then d_p over p, then d_p d_q over
        p <= q, each over the roots), and swept there. Where they evaluate,
        their values replace those roots' jets; where they fail, the jets
        stay as they were. Returns, by point, the error their sweep raises
        first at each point where they fail."""
        J, n = self.jets, self.points.shape[1]
        stop = len(self.tape.root_slots) if roots is None else roots
        with np.errstate(all="ignore"):
            if np.isfinite(J[:, :, start:stop].sum()):  # a sum that overflows takes the full check
                return {}
            bad = ~np.isfinite(J[:, :, start:stop]).all(axis=1)
        bad &= (self.first_bad >= self.tape.bounds[stop])[:, None]
        groups: dict = {}
        for j in np.flatnonzero(bad.any(axis=1)):
            groups.setdefault(tuple((start + np.flatnonzero(bad[j])).tolist()), []).append(int(j))
        errors = {}
        for cols, js in groups.items():
            es = [self.tape.nodes[self.tape.root_slots[c]] for c in cols]
            firsts = [[diff(e, p) for e in es] for p in range(n)]
            seconds = [diff(d, q) for p, q in zip(*_pairs(n, 0)) for d in firsts[p]]
            tape = compile_tape([*es, *(d for row in firsts for d in row), *seconds])
            exact = tape.sweep(self.points[js])
            for r, j in enumerate(js):
                if exact.first_bad[r] < tape.size:
                    errors[j] = exact.error(r)
                else:
                    J[j][:, list(cols)] = exact.values[r].reshape(-1, len(cols))
        return errors


def compile_tape(roots) -> Tape:
    """Compile expressions into one tape, without recursion.

    Slots follow the post-order of evaluating the roots in turn with a shared
    cache. A node structurally equal to an earlier one (same kind, operation,
    constant or exponent, and operand slots) reuses its slot."""
    nodes: list = []
    instrs: list = []
    by_key: dict = {}
    memo: dict = {}  # node -> slot
    root_slots: list = []
    bounds = [0]

    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            t = type(node)
            if t is Binary:
                a, b = memo.get(node.a), memo.get(node.b)
                if a is None or b is None:
                    if b is None:
                        stack.append(node.b)
                    if a is None:
                        stack.append(node.a)
                    continue
                key = (node.op, a, b)
            elif t is Unary or t is Power:
                child = node.arg if t is Unary else node.base
                a = memo.get(child)
                if a is None:
                    stack.append(child)
                    continue
                if t is Power:
                    key = ("^", a, node.exponent)
                elif node.op in _UNARY:
                    key = (node.op, a)
                else:
                    raise ValueError(f"unknown unary operation {node.op!r}")
            elif t is Const:
                key = ("const", node.value)
            elif t is Var:
                key = ("var", node.index)
            else:
                raise TypeError(f"unknown expression node {type(node).__name__}")
            slot = by_key.get(key)
            if slot is None:
                slot = by_key[key] = len(instrs)
                instrs.append(key)
                nodes.append(node)
            memo[node] = slot
            stack.pop()
        root_slots.append(memo[root])
        bounds.append(len(instrs))
    return Tape(nodes, instrs, root_slots, bounds)


# --- differentiation --------------------------------------------------------


def diff(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate i.

    Children are differentiated before their parents from an explicit
    stack, so the depth of the tree is not bounded by the interpreter's
    recursion limit."""
    cached = e._dcache.get(i)
    if cached is not None:
        return cached
    stack = [(e, i)]
    while stack:
        node, k = stack[-1]
        if k in node._dcache:
            stack.pop()
            continue
        # push the first operand derivative still missing, if any
        t = type(node)
        if t is Binary:
            if k not in node.a._dcache:
                stack.append((node.a, k))
                continue
            if k not in node.b._dcache:
                stack.append((node.b, k))
                continue
        elif t is Unary:
            if k not in node.arg._dcache:
                stack.append((node.arg, k))
                continue
        elif t is Power:
            if k not in node.base._dcache:
                stack.append((node.base, k))
                continue
        stack.pop()
        if node._dcache is _NO_PARTIALS:
            node._dcache = {}
        node._dcache[k] = _diff(node, k)
    return e._dcache[i]


def _diff(e: Expr, i: int) -> Expr:
    """Derivative of one node from the cached derivatives of its children."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == i else ZERO
    if isinstance(e, Unary):
        if e.op not in _UNARY:
            raise ValueError(f"unknown unary operation {e.op!r}")
        return _UNARY[e.op][2](e.arg, e, e.arg._dcache[i])
    if isinstance(e, Binary):
        da, db = e.a._dcache[i], e.b._dcache[i]
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.b), mul(e.a, db))
        return div(sub(mul(da, e.b), mul(e.a, db)), powc(e.b, 2.0))
    if isinstance(e, Power):
        # the jet sweep applies the same rule, c a^(c - 1), twice
        return mul(mul(const(e.exponent), powc(e.base, e.exponent - 1.0)), e.base._dcache[i])
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _unary_templates() -> dict:
    """Per unary op f, the tape of f'(x0) and f''(x0): the table's rule
    applied to f(x0), and to that."""
    x = Var(0)
    out = {}
    for op in _UNARY:
        d1 = diff(Unary(op, x), 0)
        out[op] = compile_tape([d1, diff(d1, 0)])
    return out


_UNARY_JETS = _unary_templates()


def _unary_jets(op: str, a: np.ndarray) -> tuple:
    """f'(a) and f''(a) of a unary op over an array of operand values."""
    tape = _UNARY_JETS[op]
    V = tape._slot_values(a[:, None])
    return V[tape.root_slots[0]], V[tape.root_slots[1]]


# --- structure helpers ------------------------------------------------------


def _nodes(e: Expr):
    """The distinct nodes of e, each once."""
    stack, seen = [e], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(_children(node))


def free_vars(e: Expr) -> frozenset[int]:
    """Set of coordinate indices the expression actually reads."""
    return frozenset(node.index for node in _nodes(e) if isinstance(node, Var))


def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace Var(i) by mapping[i] wherever present, rebuilding with the
    folding constructors. Missing indices keep their variables."""
    memo: dict[int, Expr] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        pending = [c for c in _children(node) if id(c) not in memo]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if isinstance(node, Const):
            out = node
        elif isinstance(node, Var):
            out = mapping.get(node.index, node)
        elif isinstance(node, Unary):
            out = apply_unary(node.op, memo[id(node.arg)])
        elif isinstance(node, Binary):
            a, b = memo[id(node.a)], memo[id(node.b)]
            out = {"+": add, "-": sub, "*": mul, "/": div}[node.op](a, b)
        elif isinstance(node, Power):
            out = powc(memo[id(node.base)], node.exponent)
        else:
            raise TypeError(f"unknown expression node {type(node).__name__}")
        memo[id(node)] = out
    return memo[id(e)]


def _children(e: Expr) -> tuple:
    """Operands of e, in evaluation order."""
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.a, e.b)
    if isinstance(e, Power):
        return (e.base,)
    return ()


def is_const_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


def _is_zero(e: Expr) -> bool:
    """The folded zero: mul folds to ZERO on it and add drops it."""
    return isinstance(e, Const) and e.value == 0.0


# --- printing ---------------------------------------------------------------

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 15
_PREC_POW = 30
_PREC_ATOM = 40


def _fmt_float(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def format_expr(e: Expr, names=None) -> str:
    """Render to a string the parser accepts back (given the same chart
    names)."""

    def name_of(i: int) -> str:
        if names is not None and i < len(names):
            return names[i]
        return f"x{i}"

    # per node: its text and the precedence below which a parent must wrap it
    done: dict[int, tuple[str, int]] = {}

    def wrap(node: Expr, ctx: int) -> str:
        text, prec = done[id(node)]
        return f"({text})" if ctx > prec else text

    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        pending = [c for c in _children(node) if id(c) not in done]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if isinstance(node, Const):
            out = _fmt_float(node.value), _PREC_NEG if node.value < 0 else _PREC_ATOM
        elif isinstance(node, Var):
            out = name_of(node.index), _PREC_ATOM
        elif isinstance(node, Unary):
            if node.op == "neg":
                out = f"-{wrap(node.arg, _PREC_NEG + 1)}", _PREC_NEG
            else:
                out = f"{node.op}({wrap(node.arg, 0)})", _PREC_ATOM
        elif isinstance(node, Binary):
            prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
            right_bump = 1 if node.op in "-/" else 0
            a, b = wrap(node.a, prec), wrap(node.b, prec + right_bump)
            sep = f" {node.op} " if node.op in "+-" else node.op
            out = f"{a}{sep}{b}", prec
        elif isinstance(node, Power):
            out = f"{wrap(node.base, _PREC_POW + 1)}^{_fmt_float(node.exponent)}", _PREC_POW
        else:
            raise TypeError(f"unknown expression node {type(node).__name__}")
        done[id(node)] = out
    return done[id(e)][0]


# --- parser -----------------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.pos = 0

    def _scan(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
                j = i
                while j < n and text[j].isdecimal():
                    j += 1
                if j < n and text[j] == ".":
                    j += 1
                    while j < n and text[j].isdecimal():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdecimal():
                        j = k
                        while j < n and text[j].isdecimal():
                            j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok


# the deepest nesting of factors parse_expr accepts; it recurses once per level
MAX_NESTING = 100


def parse_expr(text: str, chart: Chart, functions: dict[str, Expr] | None = None) -> Expr:
    """Parse an expression over the chart's coordinate names.

    Grammar (standard precedence, left associative, `^` binds a literal
    constant exponent):

        expr   := term (("+" | "-") term)*
        term   := factor (("*" | "/") factor)*
        factor := "-" factor | base ("^" snumber)?
        base   := number | coord | "(" expr ")" | func "(" expr ")"

    `functions` maps declared univariate function names to their bodies,
    expressions in variable 0 only. A call is expanded where it is parsed:
    the body with its variable replaced by the argument (`substitute`).
    Each parenthesis, call and unary minus nests a factor, at most
    MAX_NESTING deep. A number, or a constant folded from numbers, that is
    not finite raises a ParseError at its number or operator, since such a
    constant has no text the parser accepts back.
    """
    toks = _Tokens(text)
    functions = functions or {}
    for name, body in functions.items():
        extra = free_vars(body) - {0}
        if extra:
            raise ValueError(f"function {name!r} reads variable {max(extra)}, not only variable 0")
    index = {name: i for i, name in enumerate(chart.names)}
    depth = 0

    def finite(node: Expr, pos: int) -> Expr:
        if isinstance(node, Const) and not math.isfinite(node.value):
            raise ParseError(f"constant folds to {_fmt_float(node.value)}", pos)
        return node

    def number(text_: str, pos: int) -> float:
        value = float(text_)
        if not math.isfinite(value):
            raise ParseError(f"number {text_} is not finite", pos)
        return value

    def parse_sum() -> Expr:
        node = parse_term()
        while toks.peek()[0] in "+-":
            op, _, pos = toks.take()
            rhs = parse_term()
            node = finite(add(node, rhs) if op == "+" else sub(node, rhs), pos)
        return node

    def parse_term() -> Expr:
        node = parse_factor()
        while toks.peek()[0] in "*/":
            op, _, pos = toks.take()
            rhs = parse_factor()
            node = finite(mul(node, rhs) if op == "*" else div(node, rhs), pos)
        return node

    def parse_factor() -> Expr:
        nonlocal depth
        depth += 1
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", toks.peek()[2])
        if toks.peek()[0] == "-":
            toks.take()
            node = neg(parse_factor())
        else:
            node = parse_base()
            if toks.peek()[0] == "^":
                toks.take()
                sign = 1.0
                if toks.peek()[0] == "-":
                    toks.take()
                    sign = -1.0
                kind, text_, pos = toks.take()
                if kind != "num":
                    raise ParseError("exponent must be a numeric literal", pos)
                node = finite(powc(node, sign * number(text_, pos)), pos)
        depth -= 1
        return node

    def parse_base() -> Expr:
        kind, text_, pos = toks.take()
        if kind == "num":
            return const(number(text_, pos))
        if kind == "(":
            node = parse_sum()
            kind2, _, pos2 = toks.take()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return node
        if kind == "name":
            if toks.peek()[0] == "(":
                toks.take()
                arg = parse_sum()
                kind2, _, pos2 = toks.take()
                if kind2 == ",":
                    raise ParseError(
                        f"function {text_!r} expects exactly one argument", pos2
                    )
                if kind2 != ")":
                    raise ParseError("expected ')'", pos2)
                if text_ in _UNARY and text_ != "neg":
                    return finite(apply_unary(text_, arg), pos)
                if text_ in functions:
                    body = substitute(functions[text_], {0: arg})
                    for node in _nodes(body):
                        finite(node, pos)
                    return body
                raise ParseError(f"unknown function {text_!r}", pos)
            if text_ in index:
                return var(index[text_])
            raise ParseError(f"unknown identifier {text_!r}", pos)
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {text_!r}", pos)

    root = parse_sum()
    kind, text_, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {text_!r}", pos)
    return root


# --- jets and the finite-difference oracle ----------------------------------


@dataclass
class Jet2:
    """Value, gradient and symmetric Hessian of a scalar field at a point."""

    value: float
    grad: np.ndarray
    hess: np.ndarray


def eval_jet2(e: Expr, p) -> Jet2:
    """Second-order jet at one point: the one-sample jet sweep. Symmetry of
    the Hessian is exact: entry (i, j) with i <= j is mirrored.

    Raises the error of evaluating e there; where its value is clean but a
    partial is not finite, the jet comes from the diff trees of e
    (Sweep.repair), which raise their error instead where they fail."""
    pts = np.array([p], dtype=float)
    n = pts.shape[1]
    jet = compile_tape([e]).run_jets(pts)[0, :, 0]
    iu, ju = _pairs(n, 0)
    hess = np.empty((n, n))
    hess[iu, ju] = hess[ju, iu] = jet[1 + n :]
    return Jet2(float(jet[0]), jet[1 : 1 + n].copy(), hess)


def fd_oracle(e: Expr, p, h: float, chart: Chart | None = None):
    """Central finite-difference gradient and Hessian, O(h^2). Used as the
    independent check of the exact derivatives (jets and diff trees), never
    the other way around."""
    p = np.asarray(p, dtype=float)
    n = p.size
    if h <= 0.0:
        raise ValueError("step must be positive")
    if chart is not None:
        for i in range(n):
            lo, hi = chart.domain[i]
            if p[i] - h < lo or p[i] + h > hi:
                raise ValueError(
                    f"step {h} leaves the domain along coordinate {i}"
                )

    def f(q) -> float:
        return evaluate(e, tuple(q))

    f0 = f(p)
    grad = np.empty(n)
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        fp, fm = f(p + ei), f(p - ei)
        grad[i] = (fp - fm) / (2.0 * h)
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (
                f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)
            ) / (4.0 * h * h)
            hess[j, i] = hess[i, j]
    return grad, hess
