"""Independent brute-force oracles for the test suite.

Everything here favors literal transcription over speed: explicit loops,
no separability, no shared code with the package under test.  The filter
tables are validated with exact rational arithmetic; the scattering and
FLOPs oracles spell out the defining sums one element at a time.
"""

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)

# Dyadic-rational filter tables: (numerators, denominator, support_low),
# filter[time n] = num[n - low] * sqrt(2) / den.  Same numbers as the
# package constants; the exactness checks below are what make them safe.
DEC_LO = {
    "bior1.1": ((1, 1), 2, 0),
    "bior2.2": ((-2, 4, 12, 4, -2), 16, -2),
    "bior1.3": ((-1, 1, 8, 8, 1, -1), 16, -2),
    "bior2.6": ((-5, 10, 34, -78, -123, 324, 700, 324, -123, -78, 34, 10, -5), 1024, -6),
}
REC_LO = {
    "bior1.1": ((1, 1), 2, 0),
    "bior2.2": ((1, 2, 1), 4, -1),
    "bior1.3": ((1, 1), 2, 0),
    "bior2.6": ((1, 2, 1), 4, -1),
}
PRODUCT_CENTER = {"bior1.1": 1, "bior2.2": 0, "bior1.3": 1, "bior2.6": 0}


def frac_seq(table, name):
    nums, den, lo = table[name]
    return [Fraction(n, den) for n in nums], lo


def dec_hi(name):
    """g[n] = (-1)^n * rec_lo[1-n], exact fractions; returns (seq, low)."""
    rec, rlo = frac_seq(REC_LO, name)
    rhi = rlo + len(rec) - 1
    lo = 1 - rhi
    out = []
    for n in range(lo, 1 - rlo + 1):
        v = rec[(1 - n) - rlo]
        out.append(-v if n % 2 else v)
    return out, lo


def rec_hi(name):
    """g_rec[n] = (-1)^(n+c) * dec_lo[2c-1-n], c the product-filter center."""
    dec, dlo = frac_seq(DEC_LO, name)
    c = PRODUCT_CENTER[name]
    dhi = dlo + len(dec) - 1
    lo = 2 * c - 1 - dhi
    out = []
    for n in range(lo, 2 * c - 1 - dlo + 1):
        v = dec[(2 * c - 1 - n) - dlo]
        out.append(-v if (n + c) % 2 else v)
    return out, lo


def frac_convolve(a, alo, b, blo):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out, alo + blo


def frac_add(a, alo, b, blo):
    lo = min(alo, blo)
    hi = max(alo + len(a), blo + len(b))
    out = [Fraction(0)] * (hi - lo)
    for i, x in enumerate(a):
        out[alo - lo + i] += x
    for i, x in enumerate(b):
        out[blo - lo + i] += x
    return out, lo


def perfect_reconstruction_exact(name):
    """True iff (in exact arithmetic, the sqrt(2) factors cancelling in
    pairs) H(z)Ht(z)+G(z)Gt(z) = 2 z^c and the aliased sum vanishes.

    The float tables are num*sqrt(2)/den; products of two taps carry a
    factor 2, so working on the rational parts and doubling is exact.
    """
    h, hlo = frac_seq(DEC_LO, name)
    ht, htlo = frac_seq(REC_LO, name)
    g, glo = dec_hi(name)
    gt, gtlo = rec_hi(name)
    c = PRODUCT_CENTER[name]
    # each product of two filters carries (sqrt 2)^2 = 2
    hh, hhlo = frac_convolve(h, hlo, ht, htlo)
    gg, gglo = frac_convolve(g, glo, gt, gtlo)
    dist, dlo = frac_add([2 * v for v in hh], hhlo, [2 * v for v in gg], gglo)
    for n, v in enumerate(dist, start=dlo):
        if v != (Fraction(2) if n == c else Fraction(0)):
            return False
    halt = [(-v if (n + hlo) % 2 else v) for n, v in enumerate(h)]
    galt = [(-v if (n + glo) % 2 else v) for n, v in enumerate(g)]
    ha, halo = frac_convolve(halt, hlo, ht, htlo)
    ga, galo_ = frac_convolve(galt, glo, gt, gtlo)
    alias, _ = frac_add(ha, halo, ga, galo_)
    return all(v == 0 for v in alias)


def float_filter(table, name):
    """The float values the rational table pins down: num * sqrt(2)/den."""
    nums, den, lo = table[name]
    return [n * (SQRT2 / den) for n in nums], lo


def dec_hi_float(name):
    seq, lo = dec_hi(name)
    return [float(v) * SQRT2 for v in seq], lo


# ---------------------------------------------------------------------------
# scattering


def fold(t, n, boundary):
    if boundary == "periodic":
        return t % n
    if t < 0:
        t = -t - 1
    if t >= n:
        t = 2 * n - 1 - t
    if not 0 <= t < n:
        raise AssertionError("extension exceeded one mirror fold")
    return t


def brute_conv2(x, taps, origin, boundary, s):
    """out[i][j] = sum_ab taps[a][b] * ext[i*s + a - origin][j*s + b - origin],
    quadruple loop, explicit boundary extension per lookup."""
    x = np.asarray(x, dtype=np.float64)
    nr, nc = x.shape
    ka, kb = taps.shape
    mr, mc = -(-nr // s), -(-nc // s)
    out = np.zeros((mr, mc))
    for i in range(mr):
        for j in range(mc):
            acc = 0.0
            for a in range(ka):
                for b in range(kb):
                    acc += taps[a][b] * x[fold(i * s + a - origin, nr, boundary),
                                          fold(j * s + b - origin, nc, boundary)]
            out[i, j] = acc
    return out


def oracle_kernels(name):
    """(phi taps unit-DC, psi taps, phi origin, psi origin) from the oracle
    tables."""
    h, hlo = float_filter(DEC_LO, name)
    g, glo = dec_hi_float(name)
    assert glo == 0, "high-pass support starts at 0 for all four bases"
    hn = [v / sum(h) for v in h]
    phi = np.array([[a * b for b in hn] for a in hn])
    psi = np.array([[a * b for b in g] for a in g])
    return phi, psi, -hlo, -glo


def brute_scatter_classic(x, bases, boundary="symmetric", s=2, smooth_decimate=True):
    """Straight-line transcription: S0 = x*phi_1; U_n = |U_(n-1)*psi_n|;
    S_n = U_n*phi_n."""
    phis, psis = [], []
    for b in bases:
        phi, psi, oh, og = oracle_kernels(b)
        phis.append((phi, oh))
        psis.append((psi, og))
    s0 = brute_conv2(x, phis[0][0], phis[0][1], boundary, s)
    u, cur = [], x
    for n in range(len(bases)):
        cur = np.abs(brute_conv2(cur, psis[n][0], psis[n][1], boundary, s))
        u.append(cur)
    ss = s if smooth_decimate else 1
    sl = [brute_conv2(u[n], phis[n][0], phis[n][1], boundary, ss)
          for n in range(len(bases))]
    return s0, u, sl


def brute_scatter_improved(x, bases, boundary="symmetric", s=2,
                           smooth_with="first", smooth_decimate=True):
    """Straight-line transcription: S0 = x*phi_1; U1 = |x*psi_1|;
    A1 = |x*phi_1|; A_k = |A_(k-1)*phi_k|; U_m = |A_(m-1)*psi_m|;
    S_m = U_m*phi_1 (or phi_m with smooth_with="last")."""
    phis, psis = [], []
    for b in bases:
        phi, psi, oh, og = oracle_kernels(b)
        phis.append((phi, oh))
        psis.append((psi, og))
    depth = len(bases)
    s0 = brute_conv2(x, phis[0][0], phis[0][1], boundary, s)
    u = [np.abs(brute_conv2(x, psis[0][0], psis[0][1], boundary, s))]
    a = np.abs(brute_conv2(x, phis[0][0], phis[0][1], boundary, s))
    for m in range(2, depth + 1):
        u.append(np.abs(brute_conv2(a, psis[m - 1][0], psis[m - 1][1], boundary, s)))
        if m < depth:
            a = np.abs(brute_conv2(a, phis[m - 1][0], phis[m - 1][1], boundary, s))
    ss = s if smooth_decimate else 1
    sl = []
    for m in range(depth):
        phi, oh = phis[0] if smooth_with == "first" else phis[m]
        sl.append(brute_conv2(u[m], phi, oh, boundary, ss))
    return s0, u, sl


def rel_err(a, b, tiny=1e-300):
    """Normwise relative error: max|a-b| / max(max|b|, tiny)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), tiny))


def scaled_err(got, want, taps, x, tiny=1e-300):
    """max|got-want| / (sum|taps| * max|x|): the error scaled by the largest
    value any output of the convolution can take, not by max|want|, so it
    stays meaningful where the outputs themselves cancel to ~0 (a psi
    output over a mirrored 1-sample axis)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = float(np.abs(taps).sum()) * float(np.max(np.abs(x)))
    return float(np.max(np.abs(got - want)) / max(scale, tiny))


# ---------------------------------------------------------------------------
# flops: count multiply/accumulate work by literally iterating it


def count_conv(m1, m2, k, c_in, c_out, bias):
    n = 0
    for _ in range(m1):
        for _ in range(m2):
            for _ in range(c_out):
                n += k * k * c_in + (1 if bias else 0)
    return n


def count_fc(i, o, bias):
    n = 0
    for _ in range(o):
        n += i + (1 if bias else 0)
    return n


def count_avgpool(c_in, w_in, h_in, k):
    n = 0
    for _ in range(c_in):
        for _ in range(w_in):
            for _ in range(h_in):
                n += k * k
    return n


def conv_out(n, k, p, s, d):
    return (n - d * (k - 1) - 1 + 2 * p) // s + 1


# ---------------------------------------------------------------------------
# mlp: per-neuron loop forward and central-difference gradients


def brute_mlp_forward(weights, biases, x):
    a = list(map(float, x))
    for li, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for j in range(w.shape[1]):
            z = float(b[j])
            for i in range(w.shape[0]):
                z += a[i] * float(w[i, j])
            out.append(z)
        if li < len(weights) - 1:
            a = [v if v > 0 else 0.0 for v in out]
        else:
            a = out
    return np.array(a)


def plain_sgd(weights, biases, x, y, lr, epochs, batch_size, seed):
    """Momentum-free minibatch SGD, written out independently: the same
    [seed, 2] shuffle stream and batch-mean gradients, parameters updated
    as p -= lr * grad.  Returns (weights, biases) copies."""
    rng = np.random.default_rng([seed, 2])
    ws = [w.copy() for w in weights]
    bs = [b.copy() for b in biases]
    for _ in range(epochs):
        perm = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            idx = perm[start:start + batch_size]
            xb, yb = x[idx], y[idx]
            acts = [xb]
            a = xb
            for j in range(len(ws) - 1):
                a = np.maximum(a @ ws[j] + bs[j], 0.0)
                acts.append(a)
            scores = a @ ws[-1] + bs[-1]
            shifted = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            dz = e / e.sum(axis=-1, keepdims=True)
            dz[np.arange(len(yb)), yb] -= 1.0
            dz /= len(yb)
            for j in range(len(ws) - 1, -1, -1):
                dw = acts[j].T @ dz
                db = dz.sum(axis=0)
                if j > 0:
                    dz = (dz @ ws[j].T) * (acts[j] > 0)
                ws[j] -= lr * dw
                bs[j] -= lr * db
    return ws, bs


def brute_cross_entropy(scores, target):
    m = max(scores)
    return math.log(sum(math.exp(v - m) for v in scores)) + m - scores[target]


def fd_gradients(loss_of_params, params, eps):
    """Central differences d loss / d params, one coordinate at a time.
    params is a list of arrays mutated in place around loss_of_params()."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            up = loss_of_params()
            arr[idx] = keep - eps
            dn = loss_of_params()
            arr[idx] = keep
            g[idx] = (up - dn) / (2 * eps)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# metrics: tally by iterating the prediction pairs


def brute_tally(pairs, positive):
    tp = fp = fn = tn = 0
    for actual, predicted in pairs:
        if actual == positive and predicted == positive:
            tp += 1
        elif actual == positive:
            fn += 1
        elif predicted == positive:
            fp += 1
        else:
            tn += 1
    return tp, fp, fn, tn


# ---------------------------------------------------------------------------
# the inference head: layer 0 in float32


def assert_inference_copy(loaded, model):
    """What formats.load_model must hold for a saved model: layer 0's weights
    bitwise the saved ones cast to float32, every other array bitwise as saved."""
    assert loaded.dims == model.dims
    want = [model.weights[0].astype(np.float32), *model.weights[1:], *model.biases]
    got = [*loaded.weights, *loaded.biases]
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def float32_head_score_bound(model, x):
    """First-order bound on how far a float32 layer 0 moves the scores of the
    rows of x: rounding x and W0 to float32 and summing n products in float32
    move each pre-activation by at most (n + 2) * eps32 * (|x| @ |W0|); ReLU
    does not grow that, and each later layer at most multiplies it by |W|."""
    bound = (model.dims[0] + 2) * np.finfo(np.float32).eps * (np.abs(x) @ np.abs(model.weights[0]))
    for w in model.weights[1:]:
        bound = bound @ np.abs(w)
    return bound
