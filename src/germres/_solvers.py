"""Adaptive quadrature for the float engine.

A port of QUADPACK's dqagse (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, 1983): the same operations in the same order, so the results are
the same floats as that routine gives (tests/test_kernels.py compares them
with scipy.integrate.quad).  It also returns the error estimate, evaluation
count and exit code.

``germres.numerics`` imports this module inside tau, so the exact side
never compiles or loads it.
"""

import sys

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# dqk21's data rounded to double: Kronrod nodes from the outermost in, the
# odd positions (0-based) being the 10-point Gauss nodes; the Kronrod
# weights; the Gauss weights of the Gauss nodes in the same order
_XGK = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122,
)
_WGK = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849,
)
_WGK_CENTRE = 0.1494455540029169
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635, 0.29552422471475287)


def _qk21(f, a, b, arg):
    """dqk21: the 21-point Kronrod rule on [a, b] with its error estimate.

    Returns (result, abserr, resabs, resasc): resabs approximates the
    integral of |f|, resasc that of |f - mean|.  Straight-line code with
    QUADPACK's order of evaluation (centre, the Gauss pairs, the Kronrod
    pairs, outermost first) and of summation; node k counts from the
    outermost, l and r are its left and right values.
    """
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = _XGK
    w1, w2, w3, w4, w5, w6, w7, w8, w9, w10 = _WGK
    wc = _WGK_CENTRE
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr, arg)
    d = hlgth * x2; l2 = f(centr - d, arg); r2 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x4; l4 = f(centr - d, arg); r4 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x6; l6 = f(centr - d, arg); r6 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x8; l8 = f(centr - d, arg); r8 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x10; l10 = f(centr - d, arg); r10 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x1; l1 = f(centr - d, arg); r1 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x3; l3 = f(centr - d, arg); r3 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x5; l5 = f(centr - d, arg); r5 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x7; l7 = f(centr - d, arg); r7 = f(centr + d, arg)  # noqa: E702
    d = hlgth * x9; l9 = f(centr - d, arg); r9 = f(centr + d, arg)  # noqa: E702
    s2, s4, s6, s8, s10 = l2 + r2, l4 + r4, l6 + r6, l8 + r8, l10 + r10
    s1, s3, s5, s7, s9 = l1 + r1, l3 + r3, l5 + r5, l7 + r7, l9 + r9
    g1, g2, g3, g4, g5 = _WG
    resg = 0.0 + g1 * s2 + g2 * s4 + g3 * s6 + g4 * s8 + g5 * s10
    resk = wc * fc
    resabs = abs(resk)
    resk = (resk + w2 * s2 + w4 * s4 + w6 * s6 + w8 * s8 + w10 * s10
            + w1 * s1 + w3 * s3 + w5 * s5 + w7 * s7 + w9 * s9)
    resabs = (resabs + w2 * (abs(l2) + abs(r2)) + w4 * (abs(l4) + abs(r4)) + w6 * (abs(l6) + abs(r6))
              + w8 * (abs(l8) + abs(r8)) + w10 * (abs(l10) + abs(r10)) + w1 * (abs(l1) + abs(r1))
              + w3 * (abs(l3) + abs(r3)) + w5 * (abs(l5) + abs(r5)) + w7 * (abs(l7) + abs(r7))
              + w9 * (abs(l9) + abs(r9)))
    m = resk * 0.5
    resasc = (wc * abs(fc - m) + w1 * (abs(l1 - m) + abs(r1 - m)) + w2 * (abs(l2 - m) + abs(r2 - m))
              + w3 * (abs(l3 - m) + abs(r3 - m)) + w4 * (abs(l4 - m) + abs(r4 - m))
              + w5 * (abs(l5 - m) + abs(r5 - m)) + w6 * (abs(l6 - m) + abs(r6 - m))
              + w7 * (abs(l7 - m) + abs(r7 - m)) + w8 * (abs(l8 - m) + abs(r8 - m))
              + w9 * (abs(l9 - m) + abs(r9 - m)) + w10 * (abs(l10 - m) + abs(r10 - m)))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r**1.5) without the OverflowError Python raises for a huge r
        r = 200.0 * abserr / resasc
        abserr = resasc * (r**1.5 if r < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord (1-based interval numbers, slot 0 unused) in
    descending order of error after interval maxerr was bisected into maxerr
    and last; returns the new (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax by traversing the list top-down, errmin bottom-up
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on epstab[1..n] (1-based,
    slot 0 unused; 52 slots used at most).  Returns (n, result, abserr,
    nres); epstab and res3la (last three results, 1-based) are updated in
    place, and n may shrink when part of the table is dropped."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 are equal to within machine accuracy
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements, or irregular behaviour: drop part of the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # shift the table
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qagse(f, a, b, arg, epsabs, epsrel, limit):
    """Integral of f(x, arg) over [a, b] by dqagse: bisect the interval of
    largest error, extrapolate with the epsilon algorithm once the smallest
    interval carries it, stop at ``limit`` intervals.

    As the common driver of dqagse does, b < a integrates over [b, a] and
    negates, and a == b gives 0.  Returns (result, abserr, neval, ier) with
    QUADPACK's ier: 0 converged, 1 limit reached, 2 roundoff, 3 bad
    integrand, 4 no convergence of the extrapolation, 5 probably divergent,
    6 invalid input.  Exceptions of f propagate.
    """
    if a == b:
        return 0.0, 0.0, 0, 0
    flip, a, b = b < a, min(a, b), max(a, b)
    result, abserr, neval, ier = _dqagse(f, a, b, arg, epsabs, epsrel, limit)
    return (-result if flip else result), abserr, neval, ier


def _dqagse(f, a, b, arg, epsabs, epsrel, limit):
    """dqagse itself, on a < b."""
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 0, 6

    # first approximation to the integral
    result, abserr, defabs, resabs = _qk21(f, a, b, arg)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 21, ier

    # 1-based lists as in the Fortran (slot 0 unused)
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1], blist[1] = a, b
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    ierro = 0
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    # how the loop ends: "sum" adds up the intervals (QUADPACK's label 115);
    # "weigh" keeps the extrapolated result unless that sum is the better
    # estimate, then tests for divergence (label 100); "keep" keeps it as is
    final = "sum"
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1, arg)
        area2, error2, _, defab2 = _qk21(f, a2, b2, arg)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the interval limit, or a bad integrand at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            break
        if ier != 0:
            final = "weigh"
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # lower the error sum over the larger intervals (erlarg)
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                final = "weigh"
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            final = "weigh"
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if final == "weigh" and abserr != _OFLOW:
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    final = "sum"
            elif abserr > errsum:
                final = "sum"
            elif area == 0.0:
                final = "keep"
        if final == "weigh":
            # test on divergence
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                if area == 0.0:
                    # result / area is +-inf or nan in IEEE arithmetic
                    diverges = result != 0.0 or errsum > 0.0
                else:
                    ratio = result / area
                    diverges = 0.01 > ratio or ratio > 100.0 or errsum > abs(area)
                if diverges:
                    ier = 6
    else:
        final = "sum"
    if final == "sum":
        # QUADPACK's sum, in interval order (not math.fsum)
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier

