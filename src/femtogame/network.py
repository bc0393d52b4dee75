"""Two-tier network model: topology generation, channel gains, and SINR.

Index convention used throughout the package: link 0 is the macrocell pair
(MU transmitter -> MBS receiver); links 1..K are the femtocell pairs
(FU transmitter -> FAP receiver). The gain matrix entry ``gain[i, j]`` is the
linear power gain from the transmitter of pair i to the receiver of pair j,
so ``gain[k, 0]`` is FU k's cross-tier gain into the MBS and ``gain[0, k]``
is the MU's interference gain into FAP k. Follower-indexed vectors such as
power profiles have length K and are addressed with ``k - 1``.

All powers are linear watts internally; dBm appears only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkInstance",
    "TopologyConfig",
    "dbm_to_watts",
    "watts_to_dbm",
    "generate_topology",
    "validate_power_profile",
    "validate_rank",
    "validate_follower",
    "sinr_macro",
    "interference",
    "follower_sinr",
]


def dbm_to_watts(x: float) -> float:
    """Convert a power level in dBm to linear watts: 10^((x - 30)/10)."""
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(p: float) -> float:
    """Convert linear watts to dBm. Requires p > 0 (not NaN)."""
    if not p > 0.0:
        raise ValueError(f"watts_to_dbm requires a strictly positive power, got {p}")
    return 10.0 * math.log10(p) + 30.0


@dataclass(frozen=True)
class TopologyConfig:
    """Geometry and randomness knobs for topology generation.

    Parameters
    ----------
    macro_radius : float
        Radius of the macro disc (meters). FAPs and the MU are dropped
        uniformly inside it, centered on the MBS.
    femto_user_radius : float
        Radius of the disc around each FAP in which its FU is dropped.
    pathloss_exponent_fu : float
        Exponent for intra-femto links (FU->own FAP, FU->other FAPs).
    pathloss_exponent_mu : float
        Exponent for links involving the macro tier (MU->MBS, MU->FAP,
        FU->MBS).
    min_distance : float
        Lower clamp on every pairwise distance, keeps d^-k finite.
    rng_seed : int
        Seed; generation is bit-reproducible for a fixed seed.
    shadowing_sigma_db : float
        Standard deviation (dB) of an optional lognormal gain multiplier.
        Default 0 (off): the pathloss formula is exactly d^-k.

    Radii, exponents and ``min_distance`` must be positive and finite,
    ``shadowing_sigma_db`` finite and >= 0 (NaN fails both) and ``rng_seed``
    an integer >= 0; the constructor names the first field that is not.
    """

    macro_radius: float = 300.0
    femto_user_radius: float = 15.0
    pathloss_exponent_fu: float = 4.0
    pathloss_exponent_mu: float = 2.5
    min_distance: float = 1.0
    rng_seed: int = 0
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        positive = ("macro_radius", "femto_user_radius", "pathloss_exponent_fu", "pathloss_exponent_mu", "min_distance")
        for name in positive:
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.shadowing_sigma_db < math.inf:
            raise ValueError(f"shadowing_sigma_db must be >= 0 and finite, got {self.shadowing_sigma_db}")
        _validate_seed(self.rng_seed)


def _validate_seed(seed) -> None:
    """Refuse an ``rng_seed`` that is not an integer >= 0; NumPy integers pass, a bool does not."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"rng_seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class NetworkInstance:
    """Immutable snapshot of one scenario: gains, noise, and power limits.

    Fields
    ------
    num_followers : int
        K, the number of FU-FAP links (>= 1).
    bandwidth : float
        System bandwidth W in Hz.
    gain : (K+1, K+1) ndarray
        Linear power gains; see the module docstring for the index convention.
    noise : (K+1,) ndarray
        Receiver noise powers in watts; noise[0] is the MBS, noise[k] FAP k.
    mu_power : float
        Fixed MU transmit power p_0 in watts.
    power_max : (K,) ndarray
        Per-follower transmit power ceilings in watts.
    circuit_power : float
        Shared circuit power p_a in watts, added to transmit power in the
        efficiency denominator.
    mu_sinr_threshold : float
        Cross-tier SINR requirement at the MBS, linear ratio.
    positions : dict
        Optional generator metadata (node coordinates); not used by any
        computation, carried for traceability. Empty for hand-built instances.

    Derived on construction (not fields): ``background`` (K,), the
    interference N_k + h_0k*p_0 at FAP k when every femtocell is silent;
    ``own_gain`` (K,), the direct gains h_kk; and ``cross_gain`` (K, K), the
    femto-to-femto gains h_jk with a zero diagonal, so that p @ cross_gain
    sums over j != k without adding and then subtracting the own signal.
    """

    num_followers: int
    bandwidth: float
    gain: np.ndarray
    noise: np.ndarray
    mu_power: float
    power_max: np.ndarray
    circuit_power: float
    mu_sinr_threshold: float
    positions: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        K = self.num_followers
        if K < 1:
            raise ValueError("need at least one follower link")
        gain = np.asarray(self.gain, dtype=float)
        noise = np.asarray(self.noise, dtype=float)
        power_max = np.asarray(self.power_max, dtype=float)
        if gain.shape != (K + 1, K + 1):
            raise ValueError(f"gain must be ({K+1}, {K+1}), got {gain.shape}")
        if noise.shape != (K + 1,):
            raise ValueError(f"noise must have length {K+1}")
        if power_max.shape != (K,):
            raise ValueError(f"power_max must have length {K}")
        if not np.all(np.isfinite(gain)) or np.any(gain <= 0.0):
            raise ValueError("all gains must be strictly positive and finite")
        if not np.all(np.isfinite(noise)) or np.any(noise <= 0.0):
            raise ValueError("all noise powers must be strictly positive")
        if not np.all(np.isfinite(power_max)) or np.any(power_max <= 0.0):
            raise ValueError("power_max entries must be in (0, inf)")
        if not (self.circuit_power > 0.0 and math.isfinite(self.circuit_power)):
            raise ValueError("circuit_power must be positive and finite")
        if not (self.mu_power > 0.0 and math.isfinite(self.mu_power)):
            raise ValueError("mu_power must be positive and finite")
        if not (self.bandwidth > 0.0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")
        if not (self.mu_sinr_threshold > 0.0 and math.isfinite(self.mu_sinr_threshold)):
            raise ValueError("mu_sinr_threshold must be positive and finite")
        background = noise[1:] + gain[0, 1:] * self.mu_power
        own_gain = np.diagonal(gain)[1:].copy()
        cross_gain = gain[1:, 1:] - np.diag(own_gain)
        for arr in (gain, noise, power_max, background, own_gain, cross_gain):
            arr.setflags(write=False)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "power_max", power_max)
        object.__setattr__(self, "background", background)
        object.__setattr__(self, "own_gain", own_gain)
        object.__setattr__(self, "cross_gain", cross_gain)


def _uniform_disc(rng: np.random.Generator, radius: float, center: np.ndarray) -> np.ndarray:
    """Uniform point in a disc via sqrt-radius sampling."""
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return center + np.array([r * math.cos(theta), r * math.sin(theta)])


def generate_topology(
    cfg: TopologyConfig,
    num_followers: int,
    *,
    bandwidth: float,
    noise_power: float,
    mu_power: float,
    power_max: float,
    circuit_power: float,
    mu_sinr_threshold: float,
) -> NetworkInstance:
    """Drop a random two-tier topology and derive its gain matrix.

    The MBS sits at the origin. FAPs and the MU are uniform in the macro
    disc; each FU is uniform in a disc of radius ``cfg.femto_user_radius``
    around its FAP. Gains are d^-k with the exponent chosen per link family
    (macro-involved links use ``pathloss_exponent_mu``, intra-femto links
    ``pathloss_exponent_fu``) and every distance clamped below by
    ``cfg.min_distance``. Deterministic for a fixed ``cfg.rng_seed``.

    Parameters
    ----------
    cfg : TopologyConfig
        Geometry and seed.
    num_followers : int
        Number of FU-FAP links K >= 1.
    bandwidth, noise_power, mu_power, power_max, circuit_power, mu_sinr_threshold :
        Scenario constants (watts / Hz / linear ratio). ``noise_power`` and
        ``power_max`` are scalars here and broadcast to all receivers and
        followers; build ``NetworkInstance`` directly for heterogeneous values.

    Returns
    -------
    NetworkInstance
    """
    if num_followers < 1:
        raise ValueError("num_followers must be >= 1")
    K = num_followers
    rng = np.random.default_rng(cfg.rng_seed)

    mbs = np.zeros(2)
    mu = _uniform_disc(rng, cfg.macro_radius, mbs)
    faps = np.array([_uniform_disc(rng, cfg.macro_radius, mbs) for _ in range(K)])
    fus = np.array([_uniform_disc(rng, cfg.femto_user_radius, faps[i]) for i in range(K)])

    # Transmitter of pair 0 is the MU, of pair k the FU; receiver of pair 0
    # is the MBS, of pair k the FAP.
    tx = np.vstack([mu, fus])
    rx = np.vstack([mbs, faps])
    diff = tx[:, None, :] - rx[None, :, :]
    dist = np.maximum(np.sqrt((diff**2).sum(axis=2)), cfg.min_distance)

    expo = np.full((K + 1, K + 1), cfg.pathloss_exponent_fu)
    expo[0, :] = cfg.pathloss_exponent_mu
    expo[:, 0] = cfg.pathloss_exponent_mu
    gain = dist**-expo
    if cfg.shadowing_sigma_db > 0.0:
        shadow_db = rng.normal(0.0, cfg.shadowing_sigma_db, size=gain.shape)
        gain = gain * 10.0 ** (shadow_db / 10.0)
    if not np.all(np.isfinite(gain)) or np.any(gain <= 0.0):
        raise ValueError("generated gains are not finite/positive; check min_distance")

    return NetworkInstance(
        num_followers=K,
        bandwidth=bandwidth,
        gain=gain,
        noise=np.full(K + 1, noise_power),
        mu_power=mu_power,
        power_max=np.full(K, power_max),
        circuit_power=circuit_power,
        mu_sinr_threshold=mu_sinr_threshold,
        positions={
            "mbs": mbs.tolist(),
            "mu": mu.tolist(),
            "faps": faps.tolist(),
            "fus": fus.tolist(),
        },
    )


def validate_power_profile(net: NetworkInstance, p: np.ndarray, ndim=1) -> np.ndarray:
    """Check 0 <= p_k <= p_max: a (K,) profile, (B, K) with ``ndim=2``, either with ``ndim=(1, 2)``; returns floats."""
    p = np.asarray(p, dtype=float)
    validate_rank("power profile", p, ndim, net.num_followers)
    if p.shape[-1] != net.num_followers:
        raise ValueError(f"power profile must have length {net.num_followers}")
    if not ((p >= 0.0) & (p <= net.power_max)).all():  # NaN fails both comparisons, -inf the first, +inf the second
        raise ValueError("power profile out of [0, p_max] bounds")
    return p


def validate_rank(what: str, x: np.ndarray, ndim, K: int) -> None:
    """Raise, naming the accepted shapes (K,) and (B, K) and the one received, unless x.ndim is ``ndim`` or in it."""
    ranks = ndim if isinstance(ndim, tuple) else (ndim,)
    if x.ndim not in ranks:
        shapes = " or ".join(("({0},)", "(B, {0})")[rank - 1] for rank in ranks).format(K)
        raise ValueError(f"{what} must be shaped {shapes}, got {x.shape}")


def validate_follower(net: NetworkInstance, k) -> int:
    """Check k is an integer follower index 1..K (0 is the macro link); returns it as an int."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= net.num_followers:
        raise ValueError(f"follower index must be an integer in 1..{net.num_followers}, got {k!r}")
    return int(k)


def sinr_macro(net: NetworkInstance, p: np.ndarray):
    """SINR h_00*p_0 / (N_0 + sum_k h_k0*p_k) of the macro link at the MBS for profiles p, (K,) or (B, K).

    One value per profile, p validated. The sum is one (1, K) @ (K, 1) product
    per row, so every row of a batch rounds like ``np.dot`` on that row alone.
    """
    p = validate_power_profile(net, p, ndim=(1, 2))
    cross = (p[..., None, :] @ net.gain[1:, 0, None])[..., 0, 0]
    return net.gain[0, 0] * net.mu_power / (net.noise[0] + cross)


def interference(net: NetworkInstance, p: np.ndarray) -> np.ndarray:
    """Noise plus interference at every FAP for profiles p shaped (..., K).

    Entry k-1 of the last axis is N_k + h_0k*p_0 + sum_{j != k} h_jk*p_j, the
    SINR denominator of follower k; it does not depend on p_k itself. The sum
    is one (1, K) @ (K, K) product per C-ordered profile (a strided one would
    round differently), so every profile of a batch, in any memory layout,
    has the bits of its own 1-D call.
    """
    out = (np.ascontiguousarray(p, dtype=float)[..., None, :] @ net.cross_gain)[..., 0, :]
    out += net.background
    return out


def follower_sinr(net: NetworkInstance, p: np.ndarray) -> np.ndarray:
    """SINR of every follower link for profiles p shaped (..., K): h_kk*p_k / interference_k."""
    p = np.asarray(p, dtype=float)
    out = interference(net, p)
    return np.divide(net.own_gain * p, out, out=out)
