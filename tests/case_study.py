"""Straight-line re-computation of the three-program staffing model.

Everything here evaluates the msc.bgt quantities directly with Fraction
arithmetic, and builds the matching symbolic expressions by hand, so the
engine's output can be checked against a second, independent route. No
parsing or normalization is involved on this side.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from tuplix.constraints import leq_expr
from tuplix.expr import Add, Const, Mul, Var, div, sub

PROGRAMS = ("A", "B", "C")
COURSES = ("C1", "C2", "C3", "C4")

GLOBAL_PARAMS = ("cpec", "cpdg", "escf", "sscph", "jscph", "bbpp", "k")
PER_PROGRAM = ("nec", "ndg", "lpf", "sset", "sspst", "jspst", "ssot", "pmt")
PER_COURSE = ("sslt", "jsst")

# Bumping any of these by one changes that program's staffing balance and
# nothing else in the model.
PERTURBABLE = ("C2:sslt", "C1:jsst", "sset", "lpf", "sspst", "jspst", "ssot", "pmt")


def param_names():
    names = list(GLOBAL_PARAMS)
    for x in PROGRAMS:
        names.extend(f"{x}:{p}" for p in PER_PROGRAM)
        names.extend(f"{x}:{c}:{p}" for c in COURSES for p in PER_COURSE)
    return names


def tdiv(a, b):
    """Division with b == 0 giving 0, as the engine computes it."""
    return Fraction(0) if b == 0 else Fraction(a, 1) / b


def leq_value(p, q):
    return abs(q - p) - (q - p)


@dataclass
class StraightLine:
    ecc: Fraction
    dgc: Fraction
    esc: Fraction
    staff: dict  # program -> promised staff budget
    psi: dict  # program -> staffing balance residual (0 = balanced)
    phi: tuple  # encoded values of the three guards (0 = satisfied)

    @property
    def entries(self):
        return {"e": self.esc, "in": -(self.ecc + self.dgc)}

    @property
    def feasible(self):
        return all(v == 0 for v in self.phi) and all(v == 0 for v in self.psi.values())


def straight_line(v):
    one = Fraction(1)
    nec = sum(v[f"{x}:nec"] for x in PROGRAMS)
    ndg = sum(v[f"{x}:ndg"] for x in PROGRAMS)
    ecc = nec * v["cpec"]
    dgc = ndg * v["cpdg"]
    esc = v["escf"] * (ecc + dgc)
    rest = one - v["escf"]

    phi = (
        leq_value(v["bbpp"], Fraction(1, 3) * rest * (ecc + dgc)),
        leq_value(v["k"], tdiv(dgc * rest, 3 * v["bbpp"])),
        leq_value(one - v["k"], tdiv(ecc * rest, 3 * v["bbpp"])),
    )

    staff = {}
    psi = {}
    for x in PROGRAMS:
        xdgc = tdiv((dgc * rest - 3 * v["k"] * v["bbpp"]) * v[f"{x}:ndg"], ndg)
        xecc = tdiv((ecc * rest - 3 * (one - v["k"]) * v["bbpp"]) * v[f"{x}:nec"], nec)
        staff[x] = v["bbpp"] + xdgc + xecc
        ssh = (
            sum(v[f"{x}:{c}:sslt"] * (one + v[f"{x}:lpf"]) + v[f"{x}:sset"] for c in COURSES)
            + v[f"{x}:ndg"] * 2 * v[f"{x}:sspst"]
        )
        jsh = sum(v[f"{x}:{c}:jsst"] for c in COURSES) + v[f"{x}:ndg"] * 2 * v[f"{x}:jspst"]
        ses = ssh * v["sscph"]
        jes = jsh * v["jscph"]
        pm = (v[f"{x}:ssot"] + v[f"{x}:pmt"]) * v["sscph"]
        psi[x] = staff[x] - (ses + jes + pm)
    return StraightLine(ecc, dgc, esc, staff, psi, phi)


def consistent_scenario(rng):
    """A full valuation satisfying every guard, with pmt solved exactly."""
    v = {
        "cpec": Fraction(rng.randint(10, 40), rng.choice((1, 2))),
        "cpdg": Fraction(rng.randint(50, 400), rng.choice((1, 2))),
        "sscph": Fraction(rng.randint(40, 90)),
        "jscph": Fraction(rng.randint(20, 60)),
        "escf": Fraction(rng.randint(0, 8), 10),
    }
    for x in PROGRAMS:
        v[f"{x}:nec"] = Fraction(rng.randint(20, 90))
        v[f"{x}:ndg"] = Fraction(rng.randint(1, 25))
        v[f"{x}:lpf"] = Fraction(rng.randint(0, 30), 10)
        v[f"{x}:sset"] = Fraction(rng.randint(5, 40))
        v[f"{x}:sspst"] = Fraction(rng.randint(5, 10))
        v[f"{x}:jspst"] = Fraction(rng.randint(0, 20))
        v[f"{x}:ssot"] = Fraction(rng.randint(10, 120))
        for c in COURSES:
            v[f"{x}:{c}:sslt"] = Fraction(rng.randint(20, 160))
            v[f"{x}:{c}:jsst"] = Fraction(rng.randint(0, 120))

    rest = 1 - v["escf"]
    ecc = sum(v[f"{x}:nec"] for x in PROGRAMS) * v["cpec"]
    dgc = sum(v[f"{x}:ndg"] for x in PROGRAMS) * v["cpdg"]
    # basic budget somewhere inside the one-third bound
    v["bbpp"] = Fraction(1, 3) * rest * (ecc + dgc) * Fraction(rng.randint(1, 10), 10)
    # the k-interval allowed by the two income guards is nonempty once
    # bbpp respects the bound above
    lo = max(Fraction(0), 1 - tdiv(ecc * rest, 3 * v["bbpp"]))
    hi = min(Fraction(1), tdiv(dgc * rest, 3 * v["bbpp"]))
    assert lo <= hi
    v["k"] = lo + (hi - lo) * Fraction(rng.randint(0, 10), 10)

    for x in PROGRAMS:
        v[f"{x}:pmt"] = Fraction(0)
    sl = straight_line(v)
    for x in PROGRAMS:
        # psi with pmt = 0 is the leftover; (ssot + pmt) * sscph absorbs it
        v[f"{x}:pmt"] = sl.psi[x] / v["sscph"]
    return v


# --- the same model as hand-built expressions --------------------------------


def _total(parts):
    return reduce(Add, parts)


def _scaled(name_x, factor):
    return Mul(Var(name_x), factor)


def expr_formulas():
    """Symbolic forms of the entries and guards, built without the parser."""
    one, two, three = (Const(Fraction(n)) for n in (1, 2, 3))
    rest = sub(one, Var("escf"))
    nec = _total([Var(f"{x}:nec") for x in PROGRAMS])
    ndg = _total([Var(f"{x}:ndg") for x in PROGRAMS])
    ecc = Mul(nec, Var("cpec"))
    dgc = Mul(ndg, Var("cpdg"))
    esc = Mul(Var("escf"), Add(ecc, dgc))

    third = Const(Fraction(1, 3))
    phis = [
        leq_expr(Var("bbpp"), Mul(Mul(third, rest), Add(ecc, dgc))),
        leq_expr(Var("k"), div(Mul(dgc, rest), Mul(three, Var("bbpp")))),
        leq_expr(sub(one, Var("k")), div(Mul(ecc, rest), Mul(three, Var("bbpp")))),
    ]

    psis = {}
    dgc_shares = []
    ecc_shares = []
    for x in PROGRAMS:
        xdgc = div(
            Mul(sub(Mul(dgc, rest), Mul(Mul(three, Var("k")), Var("bbpp"))), Var(f"{x}:ndg")),
            ndg,
        )
        xecc = div(
            Mul(
                sub(Mul(ecc, rest), Mul(Mul(three, sub(one, Var("k"))), Var("bbpp"))),
                Var(f"{x}:nec"),
            ),
            nec,
        )
        dgc_shares.append(xdgc)
        ecc_shares.append(xecc)
        staff = Add(Var("bbpp"), Add(xdgc, xecc))
        ssh = _total(
            [
                Add(Mul(Var(f"{x}:{c}:sslt"), Add(one, Var(f"{x}:lpf"))), Var(f"{x}:sset"))
                for c in COURSES
            ]
            + [Mul(Mul(Var(f"{x}:ndg"), two), Var(f"{x}:sspst"))]
        )
        jsh = _total(
            [Var(f"{x}:{c}:jsst") for c in COURSES]
            + [Mul(Mul(Var(f"{x}:ndg"), two), Var(f"{x}:jspst"))]
        )
        ses = Mul(ssh, Var("sscph"))
        jes = Mul(jsh, Var("jscph"))
        pm = Mul(Add(Var(f"{x}:ssot"), Var(f"{x}:pmt")), Var("sscph"))
        psis[x] = sub(staff, Add(ses, Add(jes, pm)))

    # The degree and EC income left after the service-center share and the
    # basic budgets is exactly what the per-program shares hand out; as
    # tests these two sums are redundant next to the guards.
    sigma_dgc = sub(_total(dgc_shares), sub(Mul(dgc, rest), Mul(Mul(three, Var("k")), Var("bbpp"))))
    sigma_ecc = sub(
        _total(ecc_shares),
        sub(Mul(ecc, rest), Mul(Mul(three, sub(one, Var("k"))), Var("bbpp"))),
    )

    return {
        "in": Mul(Const(Fraction(-1)), Add(ecc, dgc)),
        "e": esc,
        "phis": phis,
        "psis": psis,
        "sigma_dgc": sigma_dgc,
        "sigma_ecc": sigma_ecc,
    }
