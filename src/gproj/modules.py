"""Finitely presented modules over quotient rings and the syzygy engine.

A module element of the free module P^r is a dict {(position, exponent): coeff}
ordered position-over-term: position i beats position j > i, ties broken by the
ring's monomial order. One graph-basis computation per generating set yields
membership tests, membership witnesses, and syzygies over the quotient ring.
The module layer hands the modulus's reduced basis to `rings.FreeModuleGB`,
which alone decides how it enters a basis; no caller appends modulus
multiples of the unit vectors.

A matrix is a tuple of dense columns, so a routine handed a nonempty one
reads both its ranks off it, len(cols) columns of length len(cols[0]):
`colon_generators`, `canonical_generators` and `exact_kernel` take no rank.
A row count is passed only where a matrix may have no columns, which state
none: `transpose`, `mat_vec`, `identity` and an engine take one.

Every Poly in a column held by an FPModule, ModuleMap, SubmoduleOfFree,
SubmoduleEngine, FreeResolution or DualModule is in normal form modulo the
ring's modulus. Only new polynomials are reduced: products, base changes,
parses, the basis elements led by a modulus lead that `_read_columns` reads
out (the rows g*e_p that the basis's interreduction changed), and the
entries of the columns a caller hands to a public constructor or query that
carry no mark. A polynomial the library makes reduced over exactly
R.modulus records that Ideal (`Poly.mod`): the results of `QuotRing.nf`,
so of parses too, the rows of `mat_vec`, the entries `_read_columns` reads
off and the parts of a witness. `QuotRing.nf` returns such a polynomial as
it is, so a column built from them is not reduced again in a query, a
constructor or a ModuleMap; a caller's unmarked polynomial is reduced. A
`Matrix` that `_read_columns` returns records the ring it was read over,
and a constructor handed one over that very ring object keeps it as it is,
with no normal-form call at all. Normal form is linear, so sums and
negations of reduced columns are reduced.
`_read_columns` unpacks only the reducers of a basis from a given position
on (a kernel is read from the tag block, never the ambient block), less the
rows g*e_p that interreduction left as they were, which are zero over R; and
each `mat_vec` is one call of the product kernel `rings._dot`, which reduces
each row whose sum does not cancel once on the modulus's rank-1 basis.

Values are immutable after construction, save idempotent writes: an engine
keeps its syzygies and `FPModule.zero` its engine once asked. Every operation
is a pure function of its inputs, so concurrent read-only sharing is safe.
Inside one top-level call of a `span_scope` entry point, each engine,
canonical generating set, node verdict of `exact_kernel` and
split verdict of `resolutions.split_surjection_onto_kernel` is built once;
a hit builds one key and makes one dict probe. A scope starts with the
engines its FPModule arguments own, and those of each ModuleMap argument's
source and target, with their canonical relations and the syzygies those
engines have read; nothing else is shared across calls or threads. A
reduced basis is unique, so a canonical set is its own canonical set:
every column tuple that `canonical_generators` or
`SubmoduleEngine.syzygies()` returns is cached as that too, and a module
presented on it builds no second basis. Those tuples, the relations a
module keeps, `transpose` and `identity` are `Matrix` values, which hash
once.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import wraps
from heapq import heapify, heappop, heappush
from math import lcm, prod
from typing import NamedTuple, Optional

from .errors import (
    InputError,
    MapNotWellDefined,
    NotMonic,
    NotRegularOnModule,
    RingMismatch,
    RingNotRecognizedAsDomain,
    UnitElement,
    ZeroDivisorInRing,
)
from .rings import (
    FreeModuleGB,
    Ideal,
    Poly,
    PolyRing,
    QuotRing,
    Vec,
    _dot,
    _layout,
    _width,
    coeffs_by_variable,
    embed_poly,
    extend_ring,
    is_monic_in_var,
    reduce_by_monic_in_var,
    restrict_poly,
)

Column = tuple  # tuple[Poly, ...]


class Matrix(tuple):
    """A tuple of columns that computes its hash once: the tuple's hash, so a
    Matrix and a plain tuple of the same columns find each other in a dict.
    `ring` is the QuotRing of the reduced basis `_read_columns` read the
    columns off, which left them nonzero and in normal form over it."""
    _hash = ring = None

    def __hash__(self):
        if self._hash is None:  # a racing thread stores the same value
            self._hash = tuple.__hash__(self)
        return self._hash


def _column_to_vec(col: Column) -> Vec:
    v: Vec = {}
    for pos, p in enumerate(col):
        for e, c in p.terms:
            v[(pos, e)] = c
    return v


def _nf_column(R: QuotRing, col) -> Column:
    return tuple(p if p.is_zero() and p.ring == R.base else R.nf(p) for p in col)


def _nonzero_columns(R: QuotRing, rank: int, columns, mismatch: str) -> Matrix:
    """The columns in normal form, zero ones dropped; InputError(mismatch)
    on a column whose length is not rank. Columns read off a basis over this
    very ring object are already both, and are kept as they are."""
    if type(columns) is Matrix and columns.ring is R:
        if any(len(col) != rank for col in columns):
            raise InputError(mismatch)
        return columns
    out = []
    for col in columns:
        if len(col) != rank:
            raise InputError(mismatch)
        col = _nf_column(R, col)
        if any(not p.is_zero() for p in col):
            out.append(col)
    return Matrix(out)


def _zero_column(R: QuotRing, rank: int) -> Column:
    return tuple(R.zero() for _ in range(rank))


def identity(R: QuotRing, n: int, u: Optional[Poly] = None) -> Matrix:
    """The n columns of u times the identity matrix; u = 1 when omitted."""
    u = R.one() if u is None else u
    return Matrix(tuple(u if j == i else R.zero() for j in range(n)) for i in range(n))


def transpose(columns, nrows: int) -> Matrix:
    """The transpose of a matrix given as columns of length nrows: nrows
    columns, each as long as the column list (empty when it is)."""
    return Matrix(tuple(col[i] for col in columns) for i in range(nrows))


# the running top-level call's span cache, None outside any scope
_SPANS: ContextVar[Optional[dict]] = ContextVar("gproj_spans", default=None)
_MISS = object()  # a key not built yet: a cached build may be None


def span_scope(fn):
    """Run fn inside a span cache: opened by the outermost scoped call, joined
    by nested ones, and dropped when the outermost call returns or raises.
    The outermost call opens it with what each FPModule argument, and the
    source and target of each ModuleMap argument, own, under
    the keys their builds would have: the engine (unless FPModule.zero still
    defers it), the canonical relations, which are their own canonical set,
    and the engine's syzygies once read, which are theirs too."""
    @wraps(fn)
    def scoped(*args, **kwargs):
        if _SPANS.get() is not None:
            return fn(*args, **kwargs)
        spans = {}
        for arg in (*args, *kwargs.values()):
            for M in (arg.source, arg.target) if isinstance(arg, ModuleMap) else (arg,):
                eng = M._span if isinstance(M, FPModule) else None
                if eng is not None:
                    R, cols, syz = M.ring, M.canonical_relations, eng._syzygies
                    spans[_span_key(SubmoduleEngine, R, (M.ngens, cols))] = eng
                    spans[_span_key(_canonical_generators, R, (cols,))] = cols
                    if syz is not None:
                        spans[_span_key(_canonical_generators, R, (syz,))] = syz
        token = _SPANS.set(spans)
        try:
            return fn(*args, **kwargs)
        finally:
            _SPANS.reset(token)
    return scoped


def _span_key(build, R: QuotRing, args: tuple) -> tuple:
    """The span cache's key of build(R, *args); it holds the degree guard
    because ring equality ignores it."""
    return (build, R, R.base.degree_guard, args)


def _per_scope(build):
    """build(R, *args), memoised in the span cache under `_span_key`, with
    list arguments keyed (and passed) as a Matrix; with none, the arguments
    are the key as passed."""
    @wraps(build, updated=())
    def memo(R: QuotRing, *args):
        if list in map(type, args):
            args = tuple(Matrix(a) if type(a) is list else a for a in args)
        spans = _SPANS.get()
        if spans is None:
            return build(R, *args)
        key = _span_key(build, R, args)
        hit = spans.get(key, _MISS)
        if hit is _MISS:
            hit = spans[key] = build(R, *args)
        return hit
    return memo


def _canonical_generators(R: QuotRing, columns) -> tuple[Column, ...]:
    """Unique reduced generating set of the R-submodule spanned by columns.

    Computed as the reduced Groebner basis of the preimage submodule of
    P^rank, rank the columns' length (the given columns plus the modulus
    times P^rank, which the engine holds as its modulus reducers), with the
    pure modulus part discarded. Canonical: depends only on the submodule,
    not on the generating set handed in. With no nonzero column it is the
    empty Matrix at every rank, and no basis is built.
    """
    vectors = [v for v in map(_column_to_vec, columns) if v]
    if not vectors:
        return Matrix()
    return _read_columns(R, FreeModuleGB(R.base, len(columns[0]), vectors, R.modulus.reduced_gb), 0)


canonical_generators = _per_scope(_canonical_generators)


def _read_columns(R: QuotRing, gb: FreeModuleGB, start: int) -> Matrix:
    """The nonzero columns in R^rank, rank = gb.rank - start, of the elements
    of the reduced basis gb led at position start or later, in basis order;
    only those reducers of gb's packed index are unpacked. gb's basis holds
    the modulus times P^gb.rank, so only a lead equal to some LM(g), g in the
    modulus, can be unreduced. A reducer whose lead is in gb._fixed is a row
    g*e_p that interreduction left as it was, whose column is zero in R^rank,
    so it is skipped unread; the rows it changed are read and reduced. The
    entries of every other element are reduced already, and are marked with
    R.modulus, over which gb was built (see `Poly`). Reduced bases are
    unique, so inside a span scope the columns are also cached as their own
    canonical_generators."""
    modulus_leads = {g.lead_monomial() for g in R.modulus.reduced_gb}
    base, one, unpack, fixed = R.base, R.base.field.one, gb._layout.unpack, gb._fixed
    out = []
    for pos, reducers in gb._index.items():  # in ascending position order
        for lead, tail, _, _ in reducers if pos >= start else ():
            if lead in fixed:
                continue
            per_pos: list[list] = [[] for _ in range(gb.rank - start)]
            for m, c in ((lead, one),) + tail:  # descending POT order, from position pos
                p, e = unpack(m)
                per_pos[p - start].append((e, c))
            if unpack(lead)[1] in modulus_leads:
                col = _nf_column(R, [Poly(base, tuple(terms)) for terms in per_pos])
            else:
                col = tuple(Poly(base, tuple(terms), R.modulus) for terms in per_pos)
            if any(not p.is_zero() for p in col):
                out.append(col)
    out = Matrix(out)
    out.ring = R
    if (spans := _SPANS.get()) is not None:
        spans[_span_key(_canonical_generators, R, (out,))] = out
    return out


class SubmoduleEngine:
    """Membership, witnesses, and syzygies for an R-submodule of R^rank.

    One graph basis, one completion, serves all three queries: generators
    are tagged with unit vectors in an extra block, the engine's modulus
    reducers sit at every position (the tag-block ones keep the build's tags
    reduced), and the POT order eliminates the ambient block first, so the
    syzygies are read off the tag block with no second basis. Columns and
    queries must be reduced: an unreduced one gets the same answers but may
    trip the guard.
    """

    def __init__(self, R: QuotRing, rank: int, columns):
        self.R = R
        self.rank = rank
        m = len(columns)
        self.m = m
        vectors = []
        zero_expt = (0,) * R.base.nvars
        for j, col in enumerate(columns):
            v = _column_to_vec(col)
            v[(rank + j, zero_expt)] = R.base.field.one
            vectors.append(v)
        self.gb = FreeModuleGB(R.base, rank + m, vectors, R.modulus.reduced_gb)
        self._syzygies = None

    def witness(self, column) -> Optional[list[Poly]]:
        """Coefficients expressing the column in the generators, or None."""
        if len(column) != self.rank:
            raise InputError(f"column of length {len(column)} queried in rank {self.rank}")
        base = self.R.base
        for p in column:  # identity first: the queries' rings are the engine's own
            if p.ring is not base and p.ring != base:
                raise RingMismatch("queried column over a different ring")
        r = self.gb.reduce_vec(_column_to_vec(column))
        if any(pos < self.rank for (pos, _) in r):
            return None
        # reduced and in POT order: the module holds g*e_(rank+j) for each
        # modulus element g, so no tag term is divisible by a modulus lead,
        # and each part is marked as reduced over R.modulus
        neg = self.R.base.field.neg
        parts: list[list] = [[] for _ in range(self.m)]
        for (pos, e), c in r.items():
            parts[pos - self.rank].append((e, neg(c)))
        return [Poly(self.R.base, tuple(terms), self.R.modulus) for terms in parts]

    def contains(self, column) -> bool:
        return self.witness(column) is not None

    def lift(self, columns) -> Optional[tuple[Column, ...]]:
        """The one solver: X with generators * X = columns, as one witness
        column per column, or None as soon as a column misses the span."""
        out = []
        for col in columns:
            wit = self.witness(col)
            if wit is None:
                return None
            out.append(tuple(wit))
        return tuple(out)

    def syzygies(self) -> tuple[Column, ...]:
        """Canonical generating set of the syzygy module of the columns."""
        if self._syzygies is None:
            # by POT elimination the tag block is the reduced basis of the
            # preimage {s : sum s_j*col_j in I*P^rank}, which is unique, so
            # these are canonical_generators' columns, in its order
            self._syzygies = _read_columns(self.R, self.gb, self.rank)
        return self._syzygies


# the one way to build an engine: once per column list in a span scope
span_engine = _per_scope(SubmoduleEngine)


def colon_generators(R: QuotRing, image_cols, modifier_cols=()) -> tuple[Column, ...]:
    """Generators of {v : sum v_j * image_j lies in span(modifiers)} in R^len(image);
    with no modifiers, the one kernel routine for a column matrix into R^rank,
    rank the columns' length. No columns (a map from R^0) gives (); empty
    columns (rank 0) give R^len(image), no engine."""
    n = len(image_cols)
    if n == 0:
        return ()
    rank = len(image_cols[0])
    if rank == 0:
        return identity(R, n)
    eng = span_engine(R, rank, [*image_cols, *modifier_cols] if modifier_cols else image_cols)
    if not modifier_cols:  # the syzygies are already canonical in R^n
        return eng.syzygies()
    return canonical_generators(R, [tuple(s[:n]) for s in eng.syzygies()])


@_per_scope
def exact_kernel(R: QuotRing, incoming, outgoing) -> Optional[tuple[Column, ...]]:
    """ker(outgoing: R^rank_here -> R^rank_next) if the chain incoming,
    outgoing is exact at this node, else None. Both ranks are read off
    outgoing, which holds rank_here columns, empty ones when rank_next is 0:
    () is the map from R^0, whose kernel is (). Image inside kernel is
    always checked, by the products outgoing * incoming: that certifies
    syzygies read off an engine independently.
    Kernel inside image is asked by membership, except when the kernel's
    generators are the incoming columns themselves, as at every node of a
    resolution, whose maps are the kernels of the maps before them.

    The one exactness checker. A verdict depends only on its key, and a span
    scope asks each key once. A periodic chain (a resolution, its dual, a
    window spliced from them) is never asked past its first period: Ext
    reads later degrees by the period's index, and `first_inexact_node`
    skips a node whose map objects are an earlier node's. One engine per map
    serves its kernel here and its image at the next node.
    """
    if not outgoing:
        return ()
    rank_next = len(outgoing[0])
    if any(not p.is_zero() for col in incoming for p in mat_vec(R, outgoing, col, rank_next)):
        return None
    kernel = colon_generators(R, outgoing)
    if kernel == tuple(incoming):  # each kernel generator is an image generator
        return kernel
    image = span_engine(R, len(outgoing), incoming)
    return kernel if all(image.contains(kg) for kg in kernel) else None


# ---------------------------------------------------------------------------
# finitely presented modules and maps
# ---------------------------------------------------------------------------

class FPModule:
    """Cokernel of a relation matrix over a QuotRing; columns are relations."""

    __slots__ = ("ring", "ngens", "relations", "canonical_relations", "_span")

    def __init__(self, ring: QuotRing, ngens: int, relations=()):
        if ngens < 0:
            raise InputError("negative generator count")
        self.ring = ring
        self.ngens = ngens
        self.relations = _nonzero_columns(ring, ngens, relations,
                                          "relation column length does not match ngens")
        self.canonical_relations = canonical_generators(ring, self.relations)
        self._span = span_engine(ring, ngens, self.canonical_relations)

    @property
    def _engine(self) -> SubmoduleEngine:
        if self._span is None:  # deferred by FPModule.zero
            self._span = span_engine(self.ring, self.ngens, self.canonical_relations)
        return self._span

    @classmethod
    def free(cls, ring: QuotRing, n: int) -> "FPModule":
        return cls(ring, n, ())

    @classmethod
    def zero(cls, ring: QuotRing, n: int) -> "FPModule":
        """FPModule(ring, n, unit columns), built with no basis."""
        module = object.__new__(cls)
        module.ring, module.ngens, module._span = ring, n, None
        module.relations = module.canonical_relations = (
            () if ring.one().is_zero() else identity(ring, n))
        return module

    @classmethod
    def from_strings(cls, ring: QuotRing, ngens: int, rows) -> "FPModule":
        """Row-major matrix of polynomial strings (ngens rows; [] = none)."""
        if not rows:
            return cls(ring, ngens, ())
        if len(rows) != ngens:
            raise InputError(f"expected {ngens} rows, got {len(rows)}")
        parsed = [[ring.poly(s) if isinstance(s, str) else s for s in row] for row in rows]
        width = {len(row) for row in parsed}
        if len(width) > 1:
            raise InputError("ragged relation matrix")
        return cls(ring, ngens, transpose(parsed, width.pop()))

    def rel_span_contains(self, column) -> bool:
        return self._engine.contains(_nf_column(self.ring, column))

    def rel_witness(self, column):
        return self._engine.witness(_nf_column(self.ring, column))

    def is_zero(self) -> bool:
        return all(self._engine.contains(e) for e in identity(self.ring, self.ngens))

    def is_free_presentation(self) -> bool:
        return not self.canonical_relations

    def direct_sum(self, other: "FPModule") -> "FPModule":
        if self.ring != other.ring:
            raise RingMismatch("direct sum over different rings")
        zero_a = _zero_column(self.ring, self.ngens)
        zero_b = _zero_column(self.ring, other.ngens)
        cols = [col + zero_b for col in self.relations]
        cols += [zero_a + col for col in other.relations]
        return FPModule(self.ring, self.ngens + other.ngens, cols)

    def same_presentation(self, other: "FPModule") -> bool:
        return (self.ring == other.ring and self.ngens == other.ngens
                and self.canonical_relations == other.canonical_relations)

    def relation_rows(self) -> tuple[tuple[Poly, ...], ...]:
        return transpose(self.relations, self.ngens)

    def __repr__(self):
        return (f"FPModule({self.ring!r}, gens={self.ngens}, "
                f"rels={len(self.relations)})")


def mat_vec(R: QuotRing, columns, vec, nrows: int) -> Column:
    """Apply the column-major matrix with nrows rows to a coefficient vector;
    no columns give nrows zeros. The whole product is one call of the product
    kernel `rings._dot`, which reduces each row that does not cancel once on
    the modulus's rank-1 basis, as `QuotRing.nf` would."""
    return _dot(R.base, columns, vec, nrows, R.modulus._gb, R.modulus)


class ModuleMap:
    """A map of f.p. modules carrying its well-definedness certificate."""

    __slots__ = ("source", "target", "columns")

    def __init__(self, source: FPModule, target: FPModule, columns, check: bool = True):
        if source.ring != target.ring:
            raise RingMismatch("map between modules over different rings")
        columns = tuple(_nf_column(source.ring, c) for c in columns)
        if len(columns) != source.ngens:
            raise InputError("matrix width does not match source generators")
        for c in columns:
            if len(c) != target.ngens:
                raise InputError("matrix height does not match target generators")
        self.source = source
        self.target = target
        self.columns = columns
        if check:
            for rel in source.relations:
                image = self.apply_to_vector(rel)
                if not target._engine.contains(image):
                    raise MapNotWellDefined(
                        "image of a source relation misses the target relation span")

    @classmethod
    def identity(cls, module: FPModule) -> "ModuleMap":
        return cls(module, module, identity(module.ring, module.ngens), check=False)

    @classmethod
    def from_strings(cls, source: FPModule, target: FPModule, rows) -> "ModuleMap":
        R = source.ring
        if len(rows) != target.ngens:
            raise InputError(f"expected {target.ngens} rows")
        parsed = [[R.poly(s) if isinstance(s, str) else s for s in row] for row in rows]
        for row in parsed:
            if len(row) != source.ngens:
                raise InputError(f"expected {source.ngens} columns")
        return cls(source, target, transpose(parsed, source.ngens))

    def apply_to_vector(self, vec) -> Column:
        if len(vec) != self.source.ngens:
            raise InputError(f"vector of length {len(vec)} for {self.source.ngens} generators")
        return mat_vec(self.source.ring, self.columns, vec, self.target.ngens)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other (matrix product with re-certification)."""
        if other.target is not self.source and not other.target.same_presentation(self.source):
            raise InputError("composition sources do not line up")
        cols = [self.apply_to_vector(c) for c in other.columns]
        return ModuleMap(other.source, self.target, cols)

    def rows(self) -> tuple[tuple[Poly, ...], ...]:
        return transpose(self.columns, self.target.ngens)

    @property
    def _image(self) -> SubmoduleEngine:
        """The one engine of the image: the columns and the target relations,
        in the target's free module. Its syzygies give the kernel, and its
        membership the cokernel and the image of a short exact sequence."""
        T = self.target
        return span_engine(T.ring, T.ngens, Matrix(self.columns + T.canonical_relations))

    def kernel_preimage_generators(self) -> tuple[Column, ...]:
        """Generators in R^{source.ngens} of the preimage of the kernel: the
        nonzero source halves of the syzygies of the image engine. Not
        canonical, so fit for membership tests only."""
        n, T = self.source.ngens, self.target
        if n == 0 or T.ngens == 0:
            return identity(T.ring, n)
        return tuple(s[:n] for s in self._image.syzygies() if any(p.terms for p in s[:n]))

    def kernel_is_zero(self) -> bool:
        return all(self.source._engine.contains(g)
                   for g in self.kernel_preimage_generators())

    def cokernel_is_zero(self) -> bool:
        T = self.target
        return T.ngens == 0 or all(map(self._image.contains, identity(T.ring, T.ngens)))

    def __repr__(self):
        return f"ModuleMap({self.source.ngens} gens -> {self.target.ngens} gens)"


def maps_equal(f: ModuleMap, g: ModuleMap) -> bool:
    """Equality as maps: the difference lands in the target relation span."""
    if f.source.ngens != g.source.ngens or f.target.ngens != g.target.ngens:
        return False
    for cf, cg in zip(f.columns, g.columns):
        diff = tuple(a - b for a, b in zip(cf, cg))
        if not f.target._engine.contains(diff):
            return False
    return True


class SubmoduleOfFree:
    """A submodule of R^ambient_rank given by a finite generating set."""

    __slots__ = ("ring", "ambient_rank", "generators", "_engine")

    def __init__(self, ring: QuotRing, ambient_rank: int, generators=()):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.generators = _nonzero_columns(ring, ambient_rank, generators,
                                           "generator length does not match ambient rank")
        self._engine = span_engine(ring, ambient_rank, self.generators)

    def contains_vector(self, column) -> bool:
        return self._engine.contains(_nf_column(self.ring, column))

    def witness(self, column):
        return self._engine.witness(_nf_column(self.ring, column))

    def contains_submodule(self, other: "SubmoduleOfFree") -> bool:
        return all(self._engine.contains(g) for g in other.generators)

    def equals(self, other: "SubmoduleOfFree") -> bool:
        return self.contains_submodule(other) and other.contains_submodule(self)

    def is_zero(self) -> bool:
        return not self.generators  # each held generator is reduced and nonzero

    def syzygies(self) -> tuple[Column, ...]:
        return self._engine.syzygies()

    def as_fpmodule(self) -> FPModule:
        return FPModule(self.ring, len(self.generators), self.syzygies())

    def intersect(self, other: "SubmoduleOfFree") -> "SubmoduleOfFree":
        if self.ring != other.ring or self.ambient_rank != other.ambient_rank:
            raise RingMismatch("intersection needs a common ambient module")
        if not self.generators or not other.generators:
            return SubmoduleOfFree(self.ring, self.ambient_rank, ())
        n = len(self.generators)
        syz = colon_generators(self.ring, self.generators + other.generators)
        cols = canonical_generators(self.ring, [mat_vec(self.ring, self.generators, s[:n],
                                                        self.ambient_rank) for s in syz])
        return SubmoduleOfFree(self.ring, self.ambient_rank, cols)

    def __repr__(self):
        return (f"SubmoduleOfFree(rank {self.ambient_rank}, "
                f"{len(self.generators)} gens)")


# ---------------------------------------------------------------------------
# ring-level operations that need syzygies
# ---------------------------------------------------------------------------

def annihilator_of_element(a: Poly, R: QuotRing) -> tuple[Poly, ...]:
    """The canonical generating tuple of the ideal (0 : a) of R, read off the
    rank-1 engine of (a). Membership in it is asked on
    `span_engine(R, 1, [(g,) for g in ann])`, whose modulus makes it an ideal
    of R, not of the polynomial ring."""
    return tuple(col[0] for col in colon_generators(R, [(R.nf(a),)]))


def is_regular_element(u: Poly, M: FPModule) -> bool:
    """True iff multiplication by u on M has zero kernel."""
    return ModuleMap(M, M, identity(M.ring, M.ngens, u), check=False).kernel_is_zero()


# ---------------------------------------------------------------------------
# duals and double duality
# ---------------------------------------------------------------------------

class DualModule(NamedTuple):
    module: FPModule
    evaluation: tuple  # one row vector in R^{M.ngens} per dual generator


def dual_module(M: FPModule) -> DualModule:
    """Hom(M, R): kernel of the transposed relation matrix, plus syzygies.

    Each generator of the dual is recorded as a row vector on M's generators,
    which is exactly its evaluation data.
    """
    R, cols = M.ring, M.canonical_relations
    kernel = colon_generators(R, transpose(cols, M.ngens))
    rels = colon_generators(R, kernel)
    return DualModule(FPModule(R, len(kernel), rels), kernel)


def dual_map(f: ModuleMap, dual_target: DualModule, dual_source: DualModule) -> ModuleMap:
    """Hom(f, R): from the dual of f's target to the dual of f's source."""
    R, n_src, rows = f.source.ring, f.source.ngens, f.rows()
    # each functional w pulled back along f, as a row on source generators
    cols = span_engine(R, n_src, dual_source.evaluation).lift(
        [mat_vec(R, rows, w, n_src) for w in dual_target.evaluation])
    if cols is None:
        raise MapNotWellDefined("pulled-back functional misses the dual module")
    return ModuleMap(dual_target.module, dual_source.module, cols)


class DoubleDualResult(NamedTuple):
    map: ModuleMap  # M -> M**
    verdict: str  # iso | mono_not_iso | not_mono
    dual: DualModule
    double_dual: DualModule


def double_duality_verdict(M: FPModule, D: DualModule) -> str:
    """iso | mono_not_iso | not_mono for the evaluation map M -> M**, with
    D = dual_module(M), decided by two `exact_kernel` node checks.

    K = D.evaluation generates M* = ker d_1^T, so G_0 = R^k ->> M*, M** sits
    in G_0* as the kernel of the dual's relations transposed, and F_0 -> M
    -> M** is the matrix K^T. The kernel and cokernel of M -> M** are Ext^1
    and Ext^2 of the transpose of M (Auslander-Bridger), the homology of
    F_1 -> F_0 -> G_0* -> G_1* at F_0 and at G_0*.
    """
    R, rels = M.ring, D.module.canonical_relations
    splice = transpose(D.evaluation, M.ngens)
    if exact_kernel(R, M.canonical_relations, splice) is None:
        return "not_mono"
    onto = exact_kernel(R, splice, transpose(rels, D.module.ngens)) is not None
    return "iso" if onto else "mono_not_iso"


@span_scope
def double_dual_map(M: FPModule) -> DoubleDualResult:
    """The evaluation map into the double dual, built as an explicit matrix,
    with the verdict of `double_duality_verdict`. It is built unchecked: its
    composite into G_0* is K^T, and K^T * d_1 = 0, the image-in-kernel
    product of the verdict's F_0 check."""
    R = M.ring
    D = dual_module(M)
    verdict = double_duality_verdict(M, D)
    DD = dual_module(D.module)
    cols = span_engine(R, D.module.ngens, DD.evaluation).lift(
        transpose(D.evaluation, M.ngens))
    return DoubleDualResult(ModuleMap(M, DD.module, cols, check=False), verdict, D, DD)


# ---------------------------------------------------------------------------
# base-change transports
# ---------------------------------------------------------------------------

def quotient_by_regular_element(M: FPModule, u: Poly) -> FPModule:
    """M/uM over R/(u), for u neither a zero divisor nor a unit, regular on M."""
    R = M.ring
    u = R.nf(u)
    if u.is_zero():
        raise ZeroDivisorInRing("zero is a zero divisor")
    if R.is_unit(u):
        raise UnitElement(f"{u} is a unit")
    if not is_regular_element(u, FPModule.free(R, 1)):
        raise ZeroDivisorInRing(f"{u} is a zero divisor in the ring")
    if not is_regular_element(u, M):
        raise NotRegularOnModule(f"{u} is not regular on the module")
    quotient = QuotRing(R.base, Ideal(R.base, list(R.modulus.generators) + [u]))
    return FPModule(quotient, M.ngens, M.relations)


def polynomial_extension(M: FPModule, var: str) -> FPModule:
    """M[x]: the same relation matrix over the ring with one fresh variable."""
    big = extend_ring(M.ring, var)
    cols = [tuple(embed_poly(p, big.base) for p in col) for col in M.relations]
    return FPModule(big, M.ngens, cols)


def _tower(S: QuotRing, monic=None) -> tuple[int, QuotRing]:
    """Read S as R[x]/J for x = S's last variable: x's index and R.

    No generator of J may involve x. With a monic f given (a Poly or its
    text), S is R[x]/(f) + J: f must be monic of positive degree in x and lie
    in S's modulus, and J is S's modulus without f.
    """
    base = S.base
    if base.nvars == 0:
        raise InputError("the ring has no polynomial variable")
    idx = base.nvars - 1
    gens = S.modulus.generators
    if monic is not None:
        monic = base.poly(monic) if isinstance(monic, str) else monic
        if not is_monic_in_var(monic, idx) or monic.degree_in(idx) < 1:
            raise NotMonic(f"{monic} is not monic of positive degree in {base.variables[idx]}")
        if not S.modulus.contains(monic):
            raise InputError("the monic polynomial does not lie in the modulus")
        gens = [g for g in gens if g != monic]
    if any(g.degree_in(idx) > 0 for g in gens):
        raise InputError("the modulus involves the tower variable")
    small = PolyRing(base.field, base.variables[:-1], base.order, base.degree_guard)
    return idx, QuotRing(small, Ideal(small, [restrict_poly(g, small) for g in gens]))


def _top_degree(col, idx: int) -> int:
    """The largest degree in variable #idx among the column's entries."""
    return max((p.degree_in(idx) for p in col if not p.is_zero()), default=0)


def restrict_scalars_monic(N: FPModule, f: Poly) -> FPModule:
    """View a module over R[x]/(f), x the last variable and f monic of degree
    k in x, as an R-module.

    Each generator splits into k generators along the basis 1, x, ..., x^{k-1};
    every relation is replaced by its k shifts, rewritten in that basis.
    Generator (i, j) of the result sits at index i*k + j.
    """
    T = N.ring
    idx, R = _tower(T, f)
    f = T.base.poly(f) if isinstance(f, str) else f  # text that _tower has checked
    k = f.degree_in(idx)
    small = R.base

    n = N.ngens
    var_poly = T.base.gens()[idx]
    new_cols = []
    for col in N.relations:
        for j in range(k):
            shifted = [T.nf(p * var_poly ** j) for p in col]
            entries = [R.zero() for _ in range(n * k)]
            for i, p in enumerate(shifted):
                p = reduce_by_monic_in_var(p, f, idx)
                for d, q in coeffs_by_variable(p, idx).items():
                    entries[i * k + d] = restrict_poly(q, small)
            new_cols.append(tuple(entries))
    return FPModule(R, n * k, new_cols)


def module_over_cover(M: FPModule, cover: QuotRing) -> FPModule:
    """View a module over R/(J) as a module over the larger quotient R/(J').

    cover's modulus must be contained in M's ring modulus; the extra modulus
    generators become relations that kill every generator.
    """
    R = M.ring
    if cover.base != R.base:
        raise RingMismatch("cover over a different base polynomial ring")
    for g in cover.modulus.generators:
        if not R.modulus.contains(g):
            raise InputError("cover modulus is not contained in the module's modulus")
    cols = list(M.relations)
    for q in R.modulus.generators:  # FPModule drops the ones cover already kills
        cols += identity(cover, M.ngens, q)
    return FPModule(cover, M.ngens, cols)


# ---------------------------------------------------------------------------
# kernels, ranks, degree windows
# ---------------------------------------------------------------------------

def kernel_of_map(f: ModuleMap) -> SubmoduleOfFree:
    """Kernel of a map between free modules, as a submodule of the source."""
    if not f.source.is_free_presentation() or not f.target.is_free_presentation():
        raise InputError("kernel_of_map expects free source and target")
    R = f.source.ring
    return SubmoduleOfFree(R, f.source.ngens, colon_generators(R, f.columns))


def _exact_quotient(a: dict, b: dict, p: Optional[int]) -> dict:
    """a / b for integer polynomials {term: coeff} packed as _bareiss packs
    them, b dividing a: each step pops the largest term left (the smallest
    int), divides its coefficient by b's lead coefficient, exactly over ZZ or
    mod p over GF(p), into the next quotient term, and subtracts that
    multiple of b's tail. a may hold zero or, over GF(p), unreduced
    coefficients; the quotient holds neither, so over b = 1 this cleans a."""
    lead = min(b)
    lc, tail = b[lead], [(m - lead, -c) for m, c in b.items() if m != lead]
    inv = pow(lc, -1, p) if p else None
    work, quotient = dict(a), {}
    heap = list(work)
    heapify(heap)
    while heap:
        c = work.pop(m := heappop(heap))
        if c := c * inv % p if p else c // lc:  # else the term cancelled
            quotient[m - lead] = c
            for t, cc in tail:
                if (old := work.get(t := t + m)) is None:
                    heappush(heap, t)  # below m: tail terms are smaller than b's lead
                    work[t] = cc * c
                else:
                    work[t] = old + cc * c
    return quotient


def _bareiss(rows) -> tuple[int, Optional[Poly]]:
    """Rank over the fraction field of the matrix with these rows, and its
    last pivot, by fraction-free (Bareiss) elimination (E. H. Bareiss, Math.
    Comp. 22, 1968): each step divides exactly by the pivot before it, 1
    before the first, so every entry is a minor of the input (Sylvester's
    identity) and a square matrix of full rank ends on its determinant, up to
    sign. Each row is converted once to integer polynomials {term: coeff},
    a term being the engine's packed monomial less the packed 1, so a
    product of two is their sum, at a width that holds twice the sum of the
    rows' degrees, which no product passes. Over QQ a row is scaled by the
    lcm of its denominators, which scales each minor on it alike; over GF(p)
    the coefficients stay residues. The elimination makes integer products
    and exact quotients alone, and the last pivot leaves as a Poly divided
    by the scales of the pivot rows, so it is the pivot the same elimination
    over the field reaches."""
    if not rows or not rows[0]:
        return 0, None
    ring = rows[0][0].ring
    p = ring.field.p if ring.field.kind == "prime_field" else None
    degree = sum(max(0, *(f.total_degree() for f in row)) for row in rows)
    layout = _layout(ring.nvars, ring.order, _width(2 * degree))
    pack, origin = layout.pack, layout.lift(0)
    A, scales, rank, last = [], [], 0, {0: 1}
    for row in rows:  # ints have a numerator and a denominator 1 too
        scales.append(s := lcm(*(c.denominator for f in row for _, c in f.terms)))
        A.append([{pack(0, e) - origin: c.numerator * (s // c.denominator) for e, c in f.terms}
                  for f in row])
    for c in range(len(A[0])):
        pivot = next((r for r in range(rank, len(A)) if A[r][c]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        scales[rank], scales[pivot] = scales[pivot], scales[rank]
        head = A[rank][c]
        for r in range(rank + 1, len(A)):  # columns up to c are read no more
            entry = {m: -x for m, x in A[r][c].items()}
            for j in range(c + 1, len(A[r])):  # A[r][j] = (head*A[r][j] - entry*A[rank][j]) / last
                work = {}
                for f, g in ((head, A[r][j]), (entry, A[rank][j])):
                    for m1, c1 in f.items():
                        for m2, c2 in g.items():
                            m = m1 + m2
                            work[m] = work.get(m, 0) + c1 * c2
                A[r][j] = _exact_quotient(work, last, p)
        rank, last = rank + 1, head
        if rank == len(A):
            break
    if not rank:
        return 0, None
    unpack, den, field = layout.unpack, prod(scales[:rank]), ring.field
    return rank, Poly(ring, tuple((unpack(m + origin)[1], field.from_fraction(c, den))
                                  for m, c in sorted(last.items())))


def module_rank(M: FPModule) -> int:
    """Generic rank over the fraction field; needs a zero modulus (a domain)."""
    if not M.ring.modulus.is_zero():
        raise RingNotRecognizedAsDomain(
            "rank is only computed over polynomial rings (zero modulus)")
    return M.ngens - _bareiss(transpose(M.canonical_relations, M.ngens))[0]


def intersect_with_truncation(Msub: SubmoduleOfFree, k: int) -> SubmoduleOfFree:
    """Intersect a submodule of F[x], x the last variable, with
    F + Fx + ... + Fx^{k-1} over the base.

    The ambient of the result is R^{r*k}; coordinate d*r + i is the degree-d
    slice of ambient coordinate i. Uses the degree-bounded generating set
    {x^j * v : deg_x(x^j * v) <= D + k} with D the top generator x-degree.

    Every returned generator genuinely lies in the intersection. The fixed
    bound can under-approximate when k is far below the generator degrees
    (cofactors of degree > D + k exist over rings with nilpotents); the
    window-sequence builder always chooses k > D, and its exactness
    certificate re-verifies everything downstream.
    """
    S = Msub.ring
    idx, R = _tower(S)
    r = Msub.ambient_rank
    if k <= 0 or r == 0:
        return SubmoduleOfFree(R, max(r * k, 0), ())
    gens = Msub.generators
    if not gens:
        return SubmoduleOfFree(R, r * k, ())
    small = R.base
    bound = max(_top_degree(g, idx) for g in gens) + k
    multiples = []
    var_poly = S.base.gens()[idx]
    for g in gens:
        for j in range(bound - _top_degree(g, idx) + 1):
            multiples.append(tuple(S.nf(p * var_poly ** j) for p in g))

    def coords(col, lo, hi):
        out = [R.zero() for _ in range((hi - lo) * r)]
        for i, p in enumerate(col):
            for d, q in coeffs_by_variable(p, idx).items():
                if lo <= d < hi:
                    out[(d - lo) * r + i] = R.nf(restrict_poly(q, small))
        return tuple(out)

    high = [coords(w, k, bound + 1) for w in multiples]
    lows = [coords(w, 0, k) for w in multiples]
    cols = [mat_vec(R, lows, s, r * k) for s in colon_generators(R, high)]
    return SubmoduleOfFree(R, r * k, canonical_generators(R, cols))


def window_vector_to_ambient(col, r: int, S: QuotRing) -> Column:
    """Rebuild an F[x] vector, x the last variable, from its
    (degree d, coordinate i) -> d*r+i slices."""
    base, k = S.base, (len(col) // r if r else 0)
    x = base.gens()[-1]
    slices = [tuple(embed_poly(p, base) for p in col[d * r:(d + 1) * r]) for d in range(k)]
    return mat_vec(S, slices, [x ** d for d in range(k)], r)


# ---------------------------------------------------------------------------
# the monomorphism/intersection equivalence
# ---------------------------------------------------------------------------

class IntersectionCriterionResult(NamedTuple):
    h_is_mono: bool
    lower_left_equals_intersection: bool
    induced_map: ModuleMap


def subquotient(numerator: SubmoduleOfFree, denominator) -> FPModule:
    """Present numerator/span(denominator) on the numerator's generators.

    The relations are membership witnesses of the denominator columns, which
    must be reduced and lie in the numerator, plus the syzygies of the
    numerator generators.
    """
    cols = numerator._engine.lift(denominator)
    if cols is None:
        raise InputError("denominator not contained in numerator")
    return FPModule(numerator.ring, len(numerator.generators), cols + numerator.syzygies())


def intersection_criterion_check(A: SubmoduleOfFree, B: SubmoduleOfFree,
                                 B1: SubmoduleOfFree, A1: SubmoduleOfFree
                                 ) -> IntersectionCriterionResult:
    """Check, by two independent routes, whether B/A -> B1/A1 is injective.

    Requires A <= B <= B1 and A <= A1 <= B1. Returns whether the induced map
    on quotients is a monomorphism, and whether A equals A1 intersect B; the
    two booleans agree on every valid input.
    """
    for sub, sup, what in ((A, B, "A in B"), (B, B1, "B in B1"),
                           (A, A1, "A in A1"), (A1, B1, "A1 in B1")):
        if not sup.contains_submodule(sub):
            raise InputError(f"inclusion certificate fails: {what}")
    Q = subquotient(B, A.generators)
    Q1 = subquotient(B1, A1.generators)
    h = ModuleMap(Q, Q1, B1._engine.lift(B.generators))
    mono = h.kernel_is_zero()
    inter = A1.intersect(B)
    return IntersectionCriterionResult(mono, inter.equals(A), h)
