"""Checker tests for classes, interfaces, mutability, casts and overloading."""


from repro.errors import ErrorKind

from test_checker_basic import check_source, ok, bad, PRELUDE


FIELD_CLASS = PRELUDE + """
type grid<w,h> = {v: number[] | len(v) = (w+2)*(h+2)};
type okW = {v: nat | v <= this.w};
type okH = {v: nat | v <= this.h};

declare gridIndex :: (x: nat, y: nat, w: pos, h: pos)
  => {v: number | 0 <= v && (x <= w && y <= h => v < (w+2)*(h+2))};

class Field {
  immutable w : pos;
  immutable h : pos;
  dens : grid<this.w, this.h>;
  constructor(w: pos, h: pos, d: grid<w, h>) {
    this.h = h; this.w = w; this.dens = d;
  }
  setDensity(x: okW, y: okH, d: number) : void {
    var i = gridIndex(x, y, this.w, this.h);
    this.dens[i] = d;
  }
  getDensity(x: okW, y: okH) : number {
    var i = gridIndex(x, y, this.w, this.h);
    return this.dens[i];
  }
  reset(d: grid<this.w, this.h>) : void {
    this.dens = d;
  }
}
"""


class TestClassInvariants:
    def test_figure2_class_checks(self):
        ok(FIELD_CLASS + """
           spec main :: () => void;
           function main() {
             var z = new Field(3, 7, new Array(45));
             z.setDensity(2, 5, -5);
             z.reset(new Array(45));
           }""")

    def test_constructor_wrong_size_rejected(self):
        bad(FIELD_CLASS + """
           spec main :: () => void;
           function main() { var z = new Field(3, 7, new Array(44)); }""")

    def test_constructor_nonpositive_dimension_rejected(self):
        bad(FIELD_CLASS + """
           spec main :: () => void;
           function main() { var z = new Field(0, 7, new Array(18)); }""")

    def test_method_argument_out_of_range_rejected(self):
        bad(FIELD_CLASS + """
           spec main :: () => void;
           function main() {
             var z = new Field(3, 7, new Array(45));
             z.getDensity(5, 2);
           }""")

    def test_mutable_field_update_must_preserve_invariant(self):
        bad(FIELD_CLASS + """
           spec main :: () => void;
           function main() {
             var z = new Field(3, 7, new Array(45));
             z.reset(new Array(5));
           }""")

    def test_immutable_field_write_outside_constructor_rejected(self):
        bad(FIELD_CLASS + """
           spec main :: () => void;
           function main() {
             var z = new Field(3, 7, new Array(45));
             z.w = 10;
           }""", ErrorKind.MUTABILITY)

    def test_constructor_must_establish_field_types(self):
        bad(PRELUDE + """
           class Counter {
             count : nat;
             constructor(start: number) { this.count = start; }
           }
           spec mk :: () => void;
           function mk() { var c = new Counter(1); }""")

    def test_constructor_establishes_field_types_ok(self):
        ok(PRELUDE + """
           class Counter {
             count : nat;
             constructor(start: nat) { this.count = start; }
             bump() : void { this.count = this.count + 1; }
           }
           spec mk :: () => void;
           function mk() { var c = new Counter(1); c.bump(); }""")

    def test_field_read_gets_declared_type(self):
        ok(PRELUDE + """
           class Box {
             immutable size : pos;
             constructor(size: pos) { this.size = size; }
           }
           spec f :: (b: Box) => pos;
           function f(b) { return b.size; }""")

    def test_unknown_field_reported(self):
        bad(PRELUDE + """
           class Box {
             immutable size : pos;
             constructor(size: pos) { this.size = size; }
           }
           spec f :: (b: Box) => pos;
           function f(b) { return b.height; }""", ErrorKind.RESOLUTION)

    def test_unknown_method_reported(self):
        bad(PRELUDE + """
           class Box {
             immutable size : pos;
             constructor(size: pos) { this.size = size; }
           }
           spec f :: (b: Box) => pos;
           function f(b) { return b.grow(); }""", ErrorKind.RESOLUTION)


class TestInterfacesAndCasts:
    HIERARCHY = """
    enum TypeFlags { Any = 0x1, Str = 0x2, Class = 0x400, Interface = 0x800,
                     Reference = 0x1000 }
    type flagsT = {v: number | (mask(v, 0x2) => impl(this, "StringType"))
                            && (mask(v, 0x3C00) => impl(this, "ObjectType")) };
    interface Type { immutable flags : flagsT; id : number; }
    interface StringType extends Type { text : string; }
    interface ObjectType extends Type { members : number[]; }
    """

    def test_guarded_downcast_ok(self):
        ok(self.HIERARCHY + """
           spec getProps :: (t: Type) => number;
           function getProps(t) {
             if (t.flags & 0x800) { var o = <ObjectType> t; return o.members.length; }
             return 0;
           }""")

    def test_wrong_guard_rejected(self):
        bad(self.HIERARCHY + """
           spec getProps :: (t: Type) => number;
           function getProps(t) {
             if (t.flags & 0x1) { var o = <ObjectType> t; return o.members.length; }
             return 0;
           }""", ErrorKind.CAST)

    def test_unguarded_downcast_rejected(self):
        bad(self.HIERARCHY + """
           spec getProps :: (t: Type) => number;
           function getProps(t) {
             var o = <ObjectType> t;
             return o.members.length;
           }""", ErrorKind.CAST)

    def test_enum_members_fold_to_constants(self):
        ok(self.HIERARCHY + PRELUDE + """
           spec f :: () => pos;
           function f() { return TypeFlags.Interface; }""")

    def test_class_implements_interface_by_width(self):
        ok(PRELUDE + """
           interface HasSize { size : number; }
           class Box {
             size : number;
             constructor(s: number) { this.size = s; }
           }
           spec f :: (b: Box) => number;
           spec g :: (h: HasSize) => number;
           function g(h) { return h.size; }
           function f(b) { return g(b); }""")


class TestOverloading:
    OVERLOAD = PRELUDE + """
    spec reduce :: <A,B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B;
    function reduce(a, f, x) {
      var res = x;
      for (var i = 0; i < a.length; i++) { res = f(res, a[i], i); }
      return res;
    }
    """

    def test_generic_higher_order_reduce(self):
        ok(self.OVERLOAD)

    def test_min_index_from_figure_1(self):
        ok(self.OVERLOAD + """
           spec minIndex :: (a: number[]) => number;
           function minIndex(a) {
             if (a.length <= 0) { return -1; }
             function step(min, cur, i) { return cur < a[min] ? i : min; }
             return reduce(a, step, 0);
           }""")

    def test_min_index_without_guard_rejected(self):
        bad(self.OVERLOAD + """
           spec minIndex :: (a: number[]) => number;
           function minIndex(a) {
             function step(min, cur, i) { return cur < a[min] ? i : min; }
             return reduce(a, step, 0);
           }""")

    def test_callback_misuse_rejected(self):
        bad(self.OVERLOAD + """
           spec minIndex :: (a: number[]) => number;
           function minIndex(a) {
             if (a.length <= 0) { return -1; }
             function step(min, cur, i) { return cur < a[min] ? i + 1 : min; }
             return reduce(a, step, 0);
           }""")

    def test_two_phase_overloads(self):
        ok(self.OVERLOAD + """
           spec $reduce :: <A>(a: {v: A[] | 0 < len(v)}, f: (A, A, idx<a>) => A) => A;
           spec $reduce :: <A,B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B;
           function $reduce(a, f, x) {
             if (arguments.length === 3) { return reduce(a, f, x); }
             return reduce(a.slice(1, a.length), f, a[0]);
           }""")

    def test_two_phase_overload_missing_guard_rejected(self):
        bad(self.OVERLOAD + """
           spec $reduce :: <A>(a: A[], f: (A, A, idx<a>) => A) => A;
           spec $reduce :: <A,B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B;
           function $reduce(a, f, x) {
             if (arguments.length === 3) { return reduce(a, f, x); }
             return reduce(a.slice(1, a.length), f, a[0]);
           }""")

    def test_lambda_argument_checked(self):
        ok(self.OVERLOAD + """
           spec total :: (a: number[]) => number;
           function total(a) {
             return reduce(a, (acc: number, cur: number, i: number) : number => acc + cur, 0);
           }""")


class TestStatsAndResultApi:
    def test_result_reports_statistics(self):
        result = check_source(PRELUDE + """
            spec f :: (x: nat) => nat;
            function f(x) { return x + 1; }""")
        assert result.ok
        assert result.checker_stats.functions_checked == 1
        assert result.num_implications >= 1
        assert result.time_seconds > 0
        assert "SAFE" in result.summary()

    def test_kappa_solution_exposed(self):
        result = check_source(PRELUDE + """
            spec f :: (a: number[]) => number;
            function f(a) {
              var s = 0;
              for (var i = 0; i < a.length; i++) { s = s + a[i]; }
              return s;
            }""")
        assert result.ok
        assert result.kappa_solution, "loop inference should create kappas"
        inferred = [str(q) for quals in result.kappa_solution.values() for q in quals]
        assert any("len" in q for q in inferred), (
            "the loop invariant should mention len(a)")


def test_class_invariants_are_per_thread():
    """Two checks running at once each keep their own class table's
    invariants: both threads install theirs before either embeds a
    class-typed term (a ``threading.Barrier`` forces the interleaving)."""
    import threading

    from repro.core.checker import Checker
    from repro.errors import DiagnosticBag
    from repro.lang.parser import parse_program
    from repro.logic.terms import Var
    from repro.rtypes.types import TRef, shape_pred

    sources = {
        "positive": "class Box { immutable n : {v: number | 0 < v};"
                    " constructor(n: number) { this.n = n; } }",
        "negative": "class Box { immutable n : {v: number | v < 0};"
                    " constructor(n: number) { this.n = n; } }",
    }
    barrier = threading.Barrier(len(sources))
    seen = {}

    def embed_box(name: str) -> None:
        checker = Checker(parse_program(sources[name]), DiagnosticBag())
        checker._resolve_class_members()
        with checker.invariants():
            barrier.wait()
            seen[name] = str(shape_pred(TRef(name="Box"), Var("b")))
            barrier.wait()

    threads = [threading.Thread(target=embed_box, args=(name,))
               for name in sources]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert "(0 < b.n)" in seen["positive"]
    assert "(b.n < 0)" in seen["negative"]
    assert "(b.n < 0)" not in seen["positive"]
    assert "(0 < b.n)" not in seen["negative"]
    # Outside a check no class table provides invariants.
    assert "b.n" not in str(shape_pred(TRef(name="Box"), Var("b")))
