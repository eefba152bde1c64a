"""Attribution pass of the traced run: public calls timed per function.

Each function is called over every point of a grid inside one span, so the
pass is aggregated per function rather than one span per row.  On the sweep
grids this prices the closed-form math a sweep row needs, and the rest of a
sweep's time is the sweep layer's own overhead.
"""

import itertools

import widemimo as wm

from inputs import CLOSED_FORM

# Public calls that produce the same numbers as one sweep row of a quantity.
ROW_CALLS = {
    "capacity": ("capacity.coherent_expansion", "capacity.gaussian_lower_bound"),
    "sublinear": ("capacity.sublinear_term",),
    "exponent": ("reliability.error_exponent", "reliability.rate_landmarks"),
    "outage": ("reliability.outage_probability", "reliability.block_error_bound"),
}
_CHUNK = 1 << 16  # the oracles draw channel matrices in chunks of this many


def _points(grid):
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*grid.values())]


def _timed(tracer, name, fn, args_list):
    with tracer.span(name, calls=len(args_list)):
        return [fn(*args) for args in args_list]


def closed_form_pass(tracer, grids):
    """Time the public closed-form functions over the sweep grids."""
    cap = _points(grids["capacity"])
    dims = [(wm.ChannelDims(p["t"], p["r"], p["l"]), p["snr"]) for p in cap]
    _timed(tracer, "capacity.coherent_expansion", wm.coherent_expansion, dims)
    _timed(tracer, "capacity.gaussian_lower_bound", wm.gaussian_lower_bound, dims)

    sub = _points(grids["sublinear"])
    _timed(tracer, "capacity.sublinear_term",
           lambda d, snr, l: wm.sublinear_term(d, snr, coherence_length=l),
           [(wm.ChannelDims(p["t"], p["r"], p["l"]), p["snr"], p["l"]) for p in sub])

    exp = _points(grids["exponent"])
    dims = [(wm.ChannelDims(p["t"], p["r"], p["l"]), p["snr"]) for p in exp]
    _timed(tracer, "capacity.regime_from_coherence", wm.regime_from_coherence, dims)
    with_rate = [(d, snr, p["rate"]) for (d, snr), p in zip(dims, exp)]
    _timed(tracer, "reliability.error_exponent", wm.error_exponent, with_rate)
    _timed(tracer, "reliability.rate_landmarks", wm.rate_landmarks, dims)

    out = _points(grids["outage"])
    dims = [(wm.ChannelDims(p["t"], p["r"], p["l"]), p["snr"]) for p in out]
    regimes = _timed(tracer, "capacity.regime_from_coherence", wm.regime_from_coherence, dims)
    optima = _timed(tracer, "reliability.training_f_star", wm.training_f_star,
                    [(d, regime.snr_b) for (d, _), regime in zip(dims, regimes)])
    _timed(tracer, "channel.gamma_lower_regularized", wm.gamma_lower_regularized,
           [(d.r * d.t, p["rate"] / (d.l * opt.f_star))
            for (d, _), p, opt in zip(dims, out, optima)])
    with_rate = [(d, snr, p["rate"]) for (d, snr), p in zip(dims, out)]
    _timed(tracer, "reliability.outage_probability", wm.outage_probability, with_rate)
    _timed(tracer, "reliability.block_error_bound", wm.block_error_bound, with_rate)


def iid_pass(tracer, grid):
    points = _points(grid)
    _timed(tracer, "iid.onoff_mi_quadrature",
           lambda r, snr, a: wm.onoff_mi_quadrature(r, snr, a, rel_tol=1e-10),
           [(p["r"], p["snr"], p["amplitude_sq"]) for p in points])
    _timed(tracer, "iid.m_star", wm.m_star, [(p["r"], p["snr"]) for p in points])


def channel_pass(tracer, seed, calls):
    """Draw the channel matrices of each mc_coherent_mi call, chunk by chunk."""
    with tracer.span("channel.sample_channel_matrix"):
        for fn, args, n, sid, *_ in calls:
            if fn != "mc_coherent_mi":
                continue
            dims = wm.ChannelDims(*args[:3])
            rng = wm.RngStream(seed, sid)
            for start in range(0, n, _CHUNK):
                wm.sample_channel_matrix(dims, rng, count=min(_CHUNK, n - start))


def per_call(selfs, name, scale):
    seconds, calls = selfs[name]
    return seconds / calls * scale


def overhead(run_sweep_s, selfs):
    """Sweep time beyond the public closed-form calls that give the same rows."""
    api = sum(selfs[name][0] for q in CLOSED_FORM for name in ROW_CALLS[q])
    return run_sweep_s - api
