"""Independent checks of the answers the benchmark's operations return.

Nothing here imports the library: words, polynomials, greedy
representations and digit extraction are re-implemented with the
stdlib, by other algorithms where one exists (Z-function for the
shift-domination test, integer reduction modulo a monic polynomial,
brute-force enumeration of greedy representations).

Every check returns one of OK, UNDECIDED (an honest answer without a
verdict) or a string naming what is wrong.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

from census import evaluate, poly_gcd, trim

OK = "ok"
UNDECIDED = "undecided"

# Brute-force enumeration of a language stops before this many words.
ORACLE_WORD_BUDGET = 20_000
# Terms compared when a certified answer names a generating word.
CERTIFIED_TERMS = 40


# -- eventually periodic words ---------------------------------------------------


def canonical(pre, per):
    """Primitive period, shortest preperiod (the library's normal form)."""
    pre, per = tuple(pre), tuple(per) or (0,)
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        per = (per[-1],) + per[:-1]
        pre = pre[:-1]
    return pre, per


def _digits(text):
    if text.startswith("["):
        inner = text[1:-1].strip()
        return tuple(int(t) for t in inner.split(",")) if inner else ()
    return tuple(int(c) for c in text)


_EP = re.compile(r"^(\[[^\[\]]*\]|\d*)(?:\((\[[^\[\]]*\]|\d+)\))?$")


def parse_ep(text):
    m = _EP.match(text.strip())
    if not m:
        raise ValueError(f"not an eventually periodic word: {text!r}")
    pre = _digits(m.group(1)) if m.group(1) else ()
    per = _digits(m.group(2)) if m.group(2) else (0,)
    return canonical(pre, per)


def fmt_word(w) -> str:
    if not w:
        return "ε"
    if max(w) <= 9:
        return "".join(map(str, w))
    return "[" + ",".join(map(str, w)) + "]"


def fmt_ep(pre, per) -> str:
    if max(pre + per) <= 9:
        return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"
    head = "[" + ",".join(map(str, pre)) + "]" if pre else ""
    return head + "([" + ",".join(map(str, per)) + "])"


def prefix(pre, per, k):
    m, n = len(pre), len(per)
    return tuple(pre[i] if i < m else per[(i - m) % n] for i in range(k))


def z_function(s):
    n = len(s)
    z = [0] * n
    if n:
        z[0] = n
    left = right = 0
    for i in range(1, n):
        if i < right:
            z[i] = min(right - i, z[i - left])
        while i + z[i] < n and s[z[i]] == s[i + z[i]]:
            z[i] += 1
        if i + z[i] > right:
            left, right = i, i + z[i]
    return z


def shift_dominated(pre, per, strict):
    """Every shift of the word is below it (strict) or at most it."""
    h = len(pre) + len(per)  # two such words agreeing on h letters are equal
    s = prefix(pre, per, 2 * h)
    z = z_function(s)
    for i in range(1, h + 1):
        k = z[i] if i < len(s) else 0
        if k >= h:
            if strict:
                return False
            continue
        if s[i + k] > s[k]:
            return False
    return True


def quasi_greedy(pre, per):
    if per != (0,):
        return pre, per
    return canonical((), pre[:-1] + (pre[-1] - 1,))


# -- polynomials of expansions ------------------------------------------------------


def expansion_poly(pre, per):
    """Low-first integer polynomial vanishing at beta when the word is an
    expansion of 1 in base beta: sum_i w_i beta^-i = 1."""
    if per == (0,):
        n = len(pre)
        coeffs = [0] * (n + 1)
        coeffs[n] = 1
        for j, t in enumerate(pre, start=1):
            coeffs[n - j] -= t
        return coeffs
    m, n = len(pre), len(per)
    digits = pre + per
    coeffs = [0] * (m + n + 1)
    coeffs[m + n] = 1
    for j, t in enumerate(digits, start=1):
        coeffs[m + n - j] -= t
    coeffs[m] -= 1
    for j, t in enumerate(pre, start=1):
        coeffs[m - j] += t
    return coeffs


def rem_monic(e, p):
    """e modulo the monic integer polynomial p (both low-first)."""
    d = len(p) - 1
    r = list(e)
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if c:
            base = k - d
            for i in range(d):
                r[base + i] -= c * p[i]
            r[k] = 0
    return trim(r[:d])


def _sign(v):
    return (v > 0) - (v < 0)


def shares_root_in(e, p, lo, hi) -> bool:
    """Does e vanish at the root of p isolated by (lo, hi)?  Exact gcd
    plus a sign change of the gcd across the interval."""
    r = rem_monic(e, p)
    g = list(p) if not r else poly_gcd(p, r)
    if len(g) < 2:
        return False
    return _sign(evaluate(g, Fraction(lo))) * _sign(evaluate(g, Fraction(hi))) < 0


def beta_enclosure(p, lo, hi, bits=160):
    """Bisect the root of p in (lo, hi) to width 2^-bits, in integers scaled
    by 2^bits; lo and hi must be integers."""
    d = len(p) - 1

    def sign(x):  # sign of p(x / 2^bits)
        return _sign(sum(c * x**i << (bits * (d - i)) for i, c in enumerate(p)))

    a, b = int(lo) << bits, int(hi) << bits
    s_a = sign(a)
    while b - a > 1:
        mid = (a + b) // 2
        s = sign(mid)
        if s == 0:
            a = b = mid
        elif s == s_a:
            a = mid
        else:
            b = mid
    return Fraction(a, 1 << bits), Fraction(b, 1 << bits)


def greedy_expansion(p, lo, hi, max_digits):
    """Greedy expansion of 1 for the root of the monic irreducible p in
    (lo, hi), by exact arithmetic in Z[beta] on integer vectors.

    Returns (pre, per), or None if no remainder repeats within max_digits.
    """
    d = len(p) - 1
    bl, bh = beta_enclosure(p, lo, hi)
    powers = [(bl**i, bh**i) for i in range(d)]

    def floor_of(vec):
        a = b = Fraction(0)
        for c, (pl_, ph) in zip(vec, powers):
            if c >= 0:
                a += c * pl_
                b += c * ph
            else:
                a += c * ph
                b += c * pl_
        fa, fb = math.floor(a), math.floor(b)
        if fa == fb:
            return fa
        if fb == fa + 1 and vec[0] == fb and not any(vec[1:]):
            return fb  # the value is exactly the integer fb
        raise ArithmeticError("enclosure too wide to separate a floor")

    rem = (1,) + (0,) * (d - 1)
    seen = {rem: 0}
    digits = []
    while len(digits) < max_digits:
        top = rem[-1]
        vec = [0] + list(rem[:-1])
        for i in range(d):
            vec[i] -= top * p[i]
        e = floor_of(vec)
        digits.append(e)
        vec[0] -= e
        rem = tuple(vec)
        if not any(rem):
            return canonical(tuple(digits), (0,))
        j = seen.get(rem)
        if j is not None:
            return canonical(tuple(digits[:j]), tuple(digits[j:]))
        seen[rem] = len(digits)
    return None


def greedy_prefix(p, lo, hi, k):
    """First k digits of the greedy expansion of 1, from an interval of the
    remainder; stops early if the enclosure cannot separate a floor."""
    bl, bh = beta_enclosure(p, lo, hi)
    rl = rh = Fraction(1)
    out = []
    for _ in range(k):
        xl, xh = rl * bl, rh * bh
        f = math.floor(xl)
        if math.floor(xh) != f or xl == f:
            break
        out.append(f)
        rl, rh = xl - f, xh - f
    return tuple(out)


# -- numeration systems ------------------------------------------------------------------


def rule_values(pre, per, count):
    """U(i) = a1 U(i-1) + ... + ai U(0) + 1 for the word a = pre per per ..."""
    a = prefix(pre, per, count)
    u = []
    for i in range(count):
        u.append(1 + sum(a[j - 1] * u[i - j] for j in range(1, i + 1)))
    return u


def word_recurrence(pre, per):
    """(coefficients, addend) of a linear recurrence that the values of
    the word's system satisfy from some index on: U(i) = sum t_j U(i-j) + 1
    for a finite word t, the expansion polynomial's recurrence otherwise."""
    if per == (0,):
        return list(pre), 1
    e = expansion_poly(pre, per)
    k = len(e) - 1
    return [-e[k - j] for j in range(1, k + 1)], 0


def system_values(pre, per, count, head=64):
    """rule_values, extended past `head` terms by word_recurrence once that
    reproduces the head."""
    first = rule_values(pre, per, min(count, head))
    if count <= head:
        return first
    coeffs, addend = word_recurrence(pre, per)
    start = first[: len(coeffs)]
    if len(coeffs) >= head or recurrence_values(start, coeffs, addend, head) != first:
        return rule_values(pre, per, count)
    return recurrence_values(start, coeffs, addend, count)


def recurrence_values(initial, coeffs, addend, count):
    u = list(initial[:count])
    while len(u) < count:
        i = len(u)
        u.append(addend + sum(c * u[i - 1 - j] for j, c in enumerate(coeffs)))
    return u


def digit_bound(u, start=1, stop=None):
    """Largest greedy digit ceil(U(i)/U(i-1)) - 1 over start <= i < stop."""
    stop = len(u) if stop is None else stop
    return max((-(-u[i] // u[i - 1]) - 1 for i in range(start, stop)), default=0)


def greedy_rep(n, u):
    length = 0
    while length < len(u) and u[length] <= n:
        length += 1
    if length == len(u):
        raise ValueError("not enough values for this integer")
    out = []
    for j in range(length - 1, -1, -1):
        dg, n = divmod(n, u[j])
        out.append(dg)
    return tuple(out)


def padded(w, k):
    return (0,) * (k - len(w)) + tuple(w)


def is_member(w, u):
    w = tuple(w)
    if len(w) >= len(u):
        raise ValueError("word longer than the known values")
    val = sum(dg * u[len(w) - 1 - i] for i, dg in enumerate(w))
    return val < u[len(w)] and padded(greedy_rep(val, u), len(w)) == w


def oracle_depth(u, limit):
    """Largest K <= limit whose languages through length K + 1 hold at
    most ORACLE_WORD_BUDGET words in total."""
    total, k = 0, -1
    for length in range(len(u)):
        total += u[length]
        if total > ORACLE_WORD_BUDGET or length - 1 > limit:
            break
        k = length - 1
    return k


def first_violation(u, k):
    """First violation of w in L <=> w0 in L among words of length <= k + 1,
    as (word, kind), found by listing every greedy representation."""
    return _first_violation(tuple(u[: k + 2]), k)


@lru_cache(maxsize=64)  # a system's four ops (two spellings, two commands) share one listing
def _first_violation(u, k):
    levels = [{padded(greedy_rep(n, u), length) for n in range(u[length])} for length in range(k + 2)]
    for length in range(1, k + 2):
        found = [
            (w, "prefix-closure")
            for w in levels[length]
            if w[-1] == 0 and w[:-1] not in levels[length - 1]
        ]
        found += [
            (w + (0,), "prolongability")
            for w in levels[length - 1]
            if w + (0,) not in levels[length]
        ]
        if found:
            return min(found)
    return None


def witness_holds(word, kind, u) -> bool:
    if not word or word[-1] != 0:
        return False
    head = word[:-1]
    if kind == "prolongability":
        return is_member(head, u) and not is_member(word, u)
    if kind == "prefix-closure":
        return is_member(word, u) and not is_member(head, u)
    return False


# -- checks per command ----------------------------------------------------------------------


def check_exact(out: str, expected: str):
    return OK if out == expected else f"output differs from the expected text: {out!r}"


def check_dbeta(out, poly_high_first, lo, hi, depth):
    """dbeta --json on an algebraic base."""
    try:
        data = json.loads(out)
    except ValueError:
        return f"not JSON: {out[:80]!r}"
    p = list(reversed(poly_high_first))
    head = greedy_prefix(p, lo, hi, 24)
    if not data["resolved"]:
        if data["class"] != f"unresolved at depth {depth}":
            return f"bad class {data['class']!r}"
        word = _digits(data["word"])
        if len(word) != depth or word[: len(head)] != head:
            return "unresolved prefix is not the greedy expansion"
        return UNDECIDED
    pre, per = parse_ep(data["word"])
    if data["word"] != fmt_ep(pre, per):
        return "word is not in canonical form"
    if per == (0,):
        want = f"simple Parry, n={len(pre)}"
    else:
        want = f"non-simple Parry, m={len(pre)}, n={len(per)}"
    if data["class"] != want:
        return f"class {data['class']!r} does not match the word"
    if prefix(pre, per, len(head)) != head:
        return "first digits differ from the greedy expansion"
    if not shift_dominated(pre, per, strict=True):
        return "word is not a valid greedy expansion (a shift dominates it)"
    if not shares_root_in(expansion_poly(pre, per), p, lo, hi):
        return "the word does not expand 1 in this base"
    return OK


def check_bertrand_text(out, u, max_len):
    k = oracle_depth(u, max_len)
    v = first_violation(u, k)
    if v is not None:
        word, kind = v
        want = f"violation: {fmt_word(word)} ({kind}); holds up to length {len(word) - 1}\n"
        return check_exact(out, want)
    if out == f"holds up to length {max_len}\n":
        return OK
    m = re.match(r"^violation: (\S+) \(([a-z-]+)\); holds up to length (\d+)\n$", out)
    if not m:
        return f"unexpected output {out!r}"
    word = _digits(m.group(1)) if m.group(1) != "ε" else ()
    if len(word) <= k + 1 or int(m.group(3)) != len(word) - 1:
        return f"reported violation {out.strip()!r} contradicts enumeration"
    return OK if witness_holds(word, m.group(2), u) else f"witness {out.strip()!r} is wrong"


def check_classify(out, u, probe):
    try:
        data = json.loads(out)
    except ValueError:
        return f"not JSON: {out[:80]!r}"
    k = oracle_depth(u, probe)
    v = first_violation(u, k)
    case = data["case"]
    if case == "not_bertrand":
        w = data["witness"]
        word = _digits(w["word"]) if w["word"] != "ε" else ()
        if v is not None:
            return OK if (word, w["kind"]) == v else f"witness {w} is not the first violation {v}"
        if len(word) <= k + 1 or not witness_holds(word, w["kind"], u):
            return f"witness {w} is wrong"
        return OK
    if v is not None:
        return f"reported {case} but {fmt_word(v[0])} violates the Bertrand condition ({v[1]})"
    if case == "undetermined":
        return UNDECIDED
    terms = CERTIFIED_TERMS if data["certified"] else probe + 1
    if case == "case1":
        if any(u[i] != i + 1 for i in range(min(terms, len(u)))):
            return "case1 reported but U(i) != i + 1"
    elif case in ("case2", "case3"):
        pre, per = parse_ep(data["word"])
        if (case == "case2") != (not pre):
            return f"{case} does not match the shape of {data['word']}"
        if rule_values(pre, per, terms) != u[:terms]:
            return f"the word {data['word']} does not generate U"
    else:
        return f"unknown case {case!r}"
    return OK if data["certified"] else UNDECIDED


def check_values(out, u):
    return check_exact(out, " ".join(map(str, u)) + "\n")


def check_automaton(out, u, max_states):
    """The minimal automaton of the canonical shift: it accepts the greatest
    word of each length, and its length-k word counts equal U(k)."""
    data = json.loads(out)
    edges = data["edges"]
    states = 1 + max([data["initial"]] + [q for q, _, t in edges] + [t for _, _, t in edges])
    if states > max_states:
        return f"{states} states, expected at most {max_states}"
    finals = set(data["finals"])
    step = {(q, c): t for q, c, t in edges}
    for length in range(1, len(u)):
        q = data["initial"]
        for c in padded(greedy_rep(u[length] - 1, u), length):
            q = step.get((q, c))
            if q is None:
                break
        if q not in finals:
            return f"the greatest word of length {length} is rejected"
    vec = {data["initial"]: 1}
    for length in range(len(u)):
        if sum(c for q, c in vec.items() if q in finals) != u[length]:
            return f"automaton counts differ from U at length {length}"
        nxt = {}
        for q, _, t in edges:
            if q in vec:
                nxt[t] = nxt.get(t, 0) + vec[q]
        vec = nxt
    return OK


def _log_int(n):
    k = max(n.bit_length() - 512, 0)
    return math.log(n >> k) + k * math.log(2)


def renewal_estimate(pre, per, beta):
    """beta / ((beta - 1) sum_i i a_i beta^-i), summed in floating point."""
    x = 1.0 / beta
    total, i, term = 0.0, 1, 1.0
    m, n = len(pre), len(per)
    while True:
        a = pre[i - 1] if i <= m else per[(i - 1 - m) % n]
        term = i * x**i
        total += a * term
        if term < 1e-18 or i > 200_000:
            break
        i += 1
    return beta / ((beta - 1.0) * total)


def check_analyze(out, u, pre, per, beta, imax, simple):
    """analyze --json for the canonical system generated by pre per^w."""
    data = json.loads(out)
    ratios = [str(Fraction(u[i + 1], u[i])) for i in range(imax)]
    if data["ratios"] != ratios:
        return "exact ratios U(i+1)/U(i) differ"
    tol = 1e-9
    target = renewal_estimate(pre, per, beta)
    t = data["target_interval"]
    if not (float(Fraction(t["lo"])) - tol <= target <= float(Fraction(t["hi"])) + tol):
        return f"renewal target {target} outside {t['lo_float']}..{t['hi_float']}"
    emp = math.exp(_log_int(u[imax]) - imax * math.log(beta))
    e = data["empirical_interval"]
    if not (float(Fraction(e["lo"])) * (1 - tol) <= emp <= float(Fraction(e["hi"])) * (1 + tol)):
        return f"U(imax)/beta^imax = {emp} outside the empirical enclosure"
    ratio_est = _log_int(u[imax]) - _log_int(u[imax - 1])
    if abs(data["entropy"]["ratio_estimate"] - ratio_est) > 1e-9:
        return "entropy ratio estimate differs"
    h = data["hollander"]
    want = "quasi-greedy" if simple else "greedy"
    if not h["stabilized"] or h["limit"] != want:
        return f"greatest words should stabilize on the {want} expansion, got {h}"
    return OK


def counting_identity_text(u, u_prime, n, range_max):
    for i in range(range_max + 1):
        if u_prime[i + n] != u[i + n] + u_prime[i]:
            return f"fails at i = {i}\n"
    return f"U'(i+{n}) = U(i+{n}) + U'(i) holds for 0 <= i <= {range_max}\n"


def check_entropy(result, u, length):
    """entropy_estimates(build_shift_dfa(base, "canonical"), length)."""
    last, prev = result
    if (last, prev) != (u[length], u[length - 1]):
        return "automaton word counts differ from U"
    return OK


# -- self-test -----------------------------------------------------------------------------


def self_test():
    """Each check must accept a right answer and reject a wrong one."""
    golden = [-1, -1, 1]  # X^2 - X - 1, low-first
    fib = recurrence_values([1, 2], [1, 1], 0, 64)
    ex31 = recurrence_values([1, 3], [1, 1], 0, 64)
    zeck = json.dumps({"case": "case2", "certified": True, "probe_len": 9, "word": "(10)",
                       "witness": None})
    cases = [
        (check_dbeta, ('{"word": "11(0)", "resolved": true, "class": "simple Parry, n=2"}',
                       golden[::-1], 1, 2, 64), True),
        (check_dbeta, ('{"word": "2(0)", "resolved": true, "class": "simple Parry, n=1"}',
                       golden[::-1], 1, 2, 64), False),
        (check_dbeta, ('{"word": "10(1)", "resolved": true, "class": "non-simple Parry, m=2, n=1"}',
                       golden[::-1], 1, 2, 64), False),
        (check_dbeta, ('{"word": "0111", "resolved": false, "class": "unresolved at depth 4"}',
                       golden[::-1], 1, 2, 4), False),
        (check_bertrand_text, ("violation: 20 (prolongability); holds up to length 1\n", ex31, 6), True),
        (check_bertrand_text, ("holds up to length 6\n", ex31, 6), False),
        (check_bertrand_text, ("holds up to length 9\n", fib, 9), True),
        (check_bertrand_text, ("violation: 100 (prefix-closure); holds up to length 2\n", fib, 9), False),
        (check_classify, (zeck, fib, 9), True),
        (check_classify, (zeck.replace("(10)", "(11)"), fib, 9), False),
        (check_classify, (zeck, ex31, 9), False),
        (check_classify, (json.dumps({"case": "not_bertrand", "certified": True, "word": None,
                                      "witness": {"word": "110", "kind": "prolongability"}}), fib, 9), False),
        (check_values, ("1 2 3 5 8\n", fib[:5]), True),
        (check_values, ("1 2 3 5 9\n", fib[:5]), False),
        (check_automaton, ('{"initial": 0, "finals": [0, 1], "edges": [[0, 0, 0], [0, 1, 1], [1, 0, 0]]}',
                           fib[:20], 2), True),
        (check_automaton, ('{"initial": 0, "finals": [0, 1], "edges": [[0, 0, 0], [0, 1, 1], [1, 1, 0]]}',
                           fib[:20], 2), False),
        (check_analyze, (json.dumps({"ratios": ["2"] * 3}), fib, (), (1, 0), 1.618, 3, True), False),
        (check_entropy, ((fib[30], fib[29]), fib, 30), True),
        (check_entropy, ((fib[30] + 1, fib[29]), fib, 30), False),
        (check_exact, ("true\n", "true\n"), True),
        (check_exact, ("false\n", "true\n"), False),
    ]
    for check, args, right in cases:
        verdict = check(*args)
        if (verdict in (OK, UNDECIDED)) != right:
            raise AssertionError(f"oracle self-test: {check.__name__}{args[:1]} gave {verdict!r}")
