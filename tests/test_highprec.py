import ast
import inspect

import mpmath as mp
import numpy as np
import pytest

from gaussqi import highprec
from gaussqi.divergence import _standard_parameters, _StandardGeometry, chernoff, q_s_general
from gaussqi.reference import _PairGeometry
from gaussqi.target import TargetConfig, make_pair, pair_moments, pair_stack
from gaussqi.transmitters import TransmitterSpec, coherent, tmss

MODERATE = [
    ("coherent", 0.5, 1.0, 0.3),
    ("vacuum", 0.0, 2.0, 0.2),
    ("smsv", 0.7, 3.0, 0.25),
    ("tmss", 0.8, 2.5, 0.15),
    # N_S == N_B: degenerate symplectic spectrum of rho0 (and of rho1 as kappa -> 0)
    ("tmss", 1e-3, 1e-3, 1e-2),
    ("tmss", 1.0, 1.0, 0.1),
]


# log Q_s at MODERATE[i], model and s, as the previous evaluation (one
# Williamson decomposition per state through a complex Hermitian
# eigensolver) gave them at DPS = 60.  The legacy vacuum pair is degenerate:
# log Q_s = 0 exactly.
PINNED = [
    (0, "agnostic", 0.1, "-0.01195645431794364952187584805727355566744390838492805832"),
    (0, "agnostic", 0.35, "-0.03172865452209408060758229060021549436575034672709586689"),
    (0, "agnostic", 0.5, "-0.03604069262892650174186642060810662215225894497944625266"),
    (0, "agnostic", 0.65, "-0.03400628838334257322283935264097365311414960888145154324"),
    (0, "agnostic", 0.9, "-0.01439291571381873089637428268194744769599659594439984218"),
    (1, "agnostic", 0.1, "-0.001368476916867431627237283863368917180150187678608289133"),
    (1, "agnostic", 0.35, "-0.003561984641150475743741499317793275089836220961130852388"),
    (1, "agnostic", 0.5, "-0.003985673394764715992346555443126111425182954079577383982"),
    (1, "agnostic", 0.65, "-0.003694624184109406713850318286936328785368004561520761492"),
    (1, "agnostic", 0.9, "-0.001508778842158074748719250728758747330531854089810212626"),
    (2, "agnostic", 0.1, "-0.0018232140277500920938609987530229303509219460606535842"),
    (2, "agnostic", 0.35, "-0.004797307600695345979653891979571583789304311197815034019"),
    (2, "agnostic", 0.5, "-0.005408165149733118950007937561988902544482262734252752628"),
    (2, "agnostic", 0.65, "-0.005054903284019804671691482452398560334457237447125963963"),
    (2, "agnostic", 0.9, "-0.002097198672600336684287997096366598875608373629140966712"),
    (3, "agnostic", 0.1, "-0.00622675719205104974346740511491487907415067115178515672"),
    (3, "agnostic", 0.35, "-0.01601617574226409608532761857991423705737388855724446632"),
    (3, "agnostic", 0.5, "-0.01793125003511611138174771866368501728129971941532204376"),
    (3, "agnostic", 0.65, "-0.01672870794717095541862361015435588440908390800995826024"),
    (3, "agnostic", 0.9, "-0.006998004475136106952232713136342690613332909638454403595"),
    (4, "agnostic", 0.1, "-7.490187893415696334750765753464623350000387356505556106e-6"),
    (4, "agnostic", 0.35, "-9.93240544408248812538081825934968246031695238193822594e-6"),
    (4, "agnostic", 0.5, "-9.995379173952528922970886546857458781877290226842732659e-6"),
    (4, "agnostic", 0.65, "-9.933026312490930268641604860168442095070008669553416692e-6"),
    (4, "agnostic", 0.9, "-7.495359034128136324141430555647378675978715414763415335e-6"),
    (5, "agnostic", 0.1, "-0.008649137605570264015310988115252985502887819745077364475"),
    (5, "agnostic", 0.35, "-0.02176125476606273923286087151468314220640701874207976784"),
    (5, "agnostic", 0.5, "-0.0241420694673962839475672614129070338290863157901526286"),
    (5, "agnostic", 0.65, "-0.02238633886165010620525726170773448549422258377984340934"),
    (5, "agnostic", 0.9, "-0.009333008614476274941271387634279982865736259802965355673"),
    (0, "legacy", 0.1, "-0.009324083158513800687020319071802734061015082927557493621"),
    (0, "legacy", 0.35, "-0.02344067653308545617908499635045588148496374293668642596"),
    (0, "legacy", 0.5, "-0.02573593128807148440707260019749306400844713566024580478"),
    (0, "legacy", 0.65, "-0.02344067653308545617908499635045588148496374293668642596"),
    (0, "legacy", 0.9, "-0.009324083158513798394847113036756799358620623785892154391"),
    (1, "legacy", 0.1, "0"),
    (1, "legacy", 0.35, "0"),
    (1, "legacy", 0.5, "0"),
    (1, "legacy", 0.65, "0"),
    (1, "legacy", 0.9, "0"),
    (2, "legacy", 0.1, "-3.576684501144311337051373692594519339755384202950478442e-4"),
    (2, "legacy", 0.35, "-8.844048682154612355988263034687846754397538353003484306e-4"),
    (2, "legacy", 0.5, "-9.604530352561103380158335123746224724995053149187954226e-4"),
    (2, "legacy", 0.65, "-8.646340580843479895168311415679052768501175039626299158e-4"),
    (2, "legacy", 0.9, "-3.367189375631103677715829531332556505969183143949293655e-4"),
    (3, "legacy", 0.1, "-0.005153793403837147272349491806687861216686270241743991052"),
    (3, "legacy", 0.35, "-0.01284775213274052859112888809300756204330817708548707744"),
    (3, "legacy", 0.5, "-0.01411575748196634522510317991139450845618515309108777402"),
    (3, "legacy", 0.65, "-0.01292158355725929697653718844813217791886582058731919496"),
    (3, "legacy", 0.9, "-0.005233523570828353593468255022585904280050132228448769387"),
    (4, "legacy", 0.1, "-7.485602350290307974408435086439044862005975585052533234e-6"),
    (4, "legacy", 0.35, "-9.920871307661052649201992584765498836472574405804490907e-6"),
    (4, "legacy", 0.5, "-9.982654620361325023586217275820362052162081029897271087e-6"),
    (4, "legacy", 0.65, "-9.921181896869211126985479315885994337573558226698423415e-6"),
    (4, "legacy", 0.9, "-7.488186547255474536614218107965008023355937678294649743e-6"),
    (5, "legacy", 0.1, "-0.008221067253432607617142732868774581215234840184210171515"),
    (5, "legacy", 0.35, "-0.02033799826628863908366240414678203307313566682289784716"),
    (5, "legacy", 0.5, "-0.02232785653648700310726291372634438946941239927908686235"),
    (5, "legacy", 0.65, "-0.02048095339664799712840564757623226184154538672917883858"),
    (5, "legacy", 0.9, "-0.008377128551853724881096819626004803948488433354592552259"),
]

# log Q_{1/2} at the limit points of test_exponent_ratio_limit_points, from
# the same evaluation.  There log Q is as small as 1e-19 and both
# evaluations lose about 20 of their 60 digits to cancellation.
PINNED_LIMITS = [
    ("tmss", 0.0001, 1e4, 1e-06, "legacy", "-9.801999704119311470399600822639413695914e-15"),
    ("coherent", 0.0001, 1e4, 1e-06, "legacy", "-2.499875007811953172686688519808391517701e-15"),
    ("tmss", 0.0001, 1e4, 1e-10, "agnostic", "-9.814498455336060497717566089912749306084e-19"),
    ("coherent", 0.0001, 1e4, 1e-10, "agnostic", "-2.512373758063178192750402186874525837837e-19"),
    ("tmss", 1e-10, 1e4, 0.001, "agnostic", "-1.251125919593220303550563202927801432209e-7"),
    ("coherent", 1e-10, 1e4, 0.001, "agnostic", "-1.251125919518118446445765998733662474278e-7"),
]


@pytest.mark.parametrize("kind,n_s,n_b,kappa", MODERATE)
@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_matches_float64_at_moderate_parameters(kind, n_s, n_b, kappa, model):
    pair = make_pair(TransmitterSpec(kind, n_s), TargetConfig(kappa=kappa, n_b=n_b, model=model))
    for s in (0.35, 0.5, 0.65):
        f64 = np.log(q_s_general(pair.rho0, pair.rho1, s))
        hp = float(highprec.log_q_s(kind, n_s, n_b, kappa, s, model=model))
        assert abs(f64 - hp) < 1e-11


def test_deficit_consistent_with_log():
    val = highprec.q_half_deficit("coherent", 1.0, 100.0, 1e-2)
    log = float(highprec.log_q_half("coherent", 1.0, 100.0, 1e-2))
    assert val == pytest.approx(-np.expm1(log), rel=1e-12)


def test_resolves_exponents_below_float_precision():
    # at kappa = 1e-10 the deficit is ~1e-21; the float64 route cannot see it
    deficit = highprec.q_half_deficit("coherent", 1e-4, 1e4, 1e-10)
    assert 0.0 < deficit < 1e-18


def test_exponent_ratio_limit_points():
    legacy = highprec.exponent_ratio(1e-4, 1e4, 1e-6, model="legacy")
    assert 3.9 <= legacy <= 4.0
    agnostic = highprec.exponent_ratio(1e-4, 1e4, 1e-10)
    assert 3.8 <= agnostic < 4.0
    ns_first = highprec.exponent_ratio(1e-10, 1e4, 1e-3)
    assert abs(ns_first - 1.0) <= 0.02


def test_rejects_unknown_model():
    # a misspelt model used to fall through to the agnostic moments
    message = r"unknown model 'legcy'; expected one of \('agnostic', 'legacy'\)"
    with pytest.raises(ValueError, match=message):
        highprec.log_q_half("coherent", 1, 1, 0.1, model="legcy")


@pytest.mark.parametrize("index,model,s,pinned", PINNED)
def test_matches_pinned_values_at_moderate_parameters(index, model, s, pinned):
    value = highprec.log_q_s(*MODERATE[index], s, model=model)
    with mp.workdps(highprec.DPS):
        assert abs(value - mp.mpf(pinned)) <= 1e-50 * abs(mp.mpf(pinned)) + 1e-58


@pytest.mark.parametrize("kind,n_s,n_b,kappa,model,pinned", PINNED_LIMITS)
def test_matches_pinned_values_at_limit_points(kind, n_s, n_b, kappa, model, pinned):
    value = highprec.log_q_half(kind, n_s, n_b, kappa, model=model)
    with mp.workdps(highprec.DPS):
        assert abs(value / mp.mpf(pinned) - 1) <= 1e-30


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_pure_pairs_at_zero_background(model):
    # At N_B = 0 the coherent pair is two pure states, Q_s = |<0|beta>|^2 =
    # exp(-kappa N_S) at every s, and the vacuum pair is one state.  Without
    # the pure-mode band, nu = 1/2 came out of the eigensolver a few 1e-61
    # off and (2 nu - 1)**s missed -kappa N_S by 7.8e-7 relative.
    n_s, kappa = 0.7, 0.2
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        coherent = highprec.log_q_s("coherent", n_s, 0.0, kappa, s, model=model)
        vacuum = highprec.log_q_s("vacuum", 0.0, 0.0, kappa, s, model=model)
        with mp.workdps(highprec.DPS):
            exact = -mp.mpf(kappa) * mp.mpf(n_s)
            assert abs(coherent / exact - 1) <= 1e-50
            assert abs(vacuum) <= 1e-50


@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_tmss_at_zero_background_is_real_and_matches_production(model):
    # The transmitted mode of both states is pure; it once made log Q_s an
    # mpc with an imaginary part of 3.6e-20.
    moments = pair_stack("tmss", 0.7, [0.0], 0.2, model)
    geometry = _StandardGeometry.from_parameters(*_standard_parameters(*moments))
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        value = highprec.log_q_s("tmss", 0.7, 0.0, 0.2, s, model=model)
        assert isinstance(value, mp.mpf)
        production = geometry.derivatives(np.array([s]))[0][0]
        assert abs(float(value) - production) <= 1e-10 * abs(production)


def test_pure_tmss_pair_matches_highprec_on_both_float64_routes():
    # At N_B = 0 rho1's transmitted mode is pure too.  The dense route's
    # decomposition put its nu above 1/2 by rounding in about half of all
    # draws, and Lambda_p(1 + d) - 1 ~ 2 (d/2)^p then missed log Q_{0.9} by
    # 2.3e-2; both routes now set such a nu to 1/2.
    pair = make_pair(tmss(1.0), TargetConfig(kappa=0.05, n_b=0.0))
    dense = _PairGeometry(*pair_stack("tmss", 1.0, [0.0], 0.05))
    for s in (0.1, 0.5, 0.9):
        exact = float(highprec.log_q_s("tmss", 1.0, 0.0, 0.05, s))
        production = np.log(q_s_general(pair.rho0, pair.rho1, s))
        reference = dense.log_q_and_slope(np.array([s]))[0][0]
        assert abs(production - exact) <= 1e-12 * abs(exact)
        assert abs(reference - exact) <= 1e-12 * abs(exact)


def test_pure_mode_band_holds_the_rounding_of_the_closed_form():
    # At N_B = 0 rho1's transmitted mode is pure, and the rounding of the
    # entries moves its closed-form nu by up to about eps (a + m)^2 / S.  On
    # 400000 draws with N_S in [1e-8, 1e4] and kappa in [1e-12, 0.999999] it
    # moved by up to 0.71 of that unit, and past 0.5 in 65 draws, all at
    # kappa > 0.5; these two are above 1/2 by 2.2e-16.  Left there, it
    # would make Lambda_{1-s} - 1 about 2 at s = 0.999, and log Q_s wrong by
    # 96%: the band of 2 units sets it to 1/2.
    n_s, kappa = (0.09759729655705549, 0.12166155412598975), (0.9580719502777387,
                                                                0.9957898932385046)
    moments = pair_stack("tmss", n_s, 0.0, kappa)
    geometry = _StandardGeometry.from_parameters(*_standard_parameters(*moments))
    assert np.all(geometry.x[:, (0, 2)] == 1.0)
    production = geometry.derivatives(np.full(2, 0.999))[0]
    for k, value in enumerate(production):
        exact = float(highprec.log_q_s("tmss", n_s[k], 0.0, kappa[k], 0.999))
        assert abs(value - exact) <= 1e-12 * abs(exact)


# ROADMAP direction 2: the closed-form geometry sums O(log N_B) terms to a
# constant that is exactly 0 for identical covariances, which leaves a few
# eps against an xi of 1e-11 to 1e-13.  A legacy coherent pair's covariances
# agree to rounding.  With det Sigma as L0^2 + L1^2 + 2 h L0 L1 (h = 1 for
# equal covariances) the N_B = 1e4 rows match mpmath; as the product of the
# two sector variances they missed by 3.2e-6 and 1.9e-3.  The N_B = 100 row
# still misses by 3.6e-5, with no flag; strict=True makes the fix remove
# its mark.
@pytest.mark.parametrize("kappa, n_b", [
    (1e-2, 1e4),
    (1e-4, 1e4),
    pytest.param(1e-4, 1e2, marks=pytest.mark.xfail(
        strict=True, reason="direction 2: legacy coherent xi cancels, unflagged")),
])
def test_legacy_coherent_chernoff_matches_highprec_or_is_flagged(kappa, n_b):
    res = chernoff(make_pair(coherent(1e-4), TargetConfig(kappa=kappa, n_b=n_b, model="legacy")))
    exact = -float(highprec.log_q_s("coherent", 1e-4, n_b, kappa, res.s_star, model="legacy"))
    assert res.flags or abs(res.xi - exact) <= 1e-12 * exact, (res.xi, exact)


@pytest.mark.parametrize(
    "kind,n_s,n_b,kappa", [MODERATE[3], MODERATE[4], ("coherent", 0.5, 1.0, 0.3)]
)
def test_cached_geometry_is_bit_identical(kind, n_s, n_b, kappa, monkeypatch):
    jacobi_calls = []
    real_jacobi = highprec._jacobi
    monkeypatch.setattr(highprec, "_jacobi", lambda a: jacobi_calls.append(a) or real_jacobi(a))
    highprec._pair_geometry.cache_clear()
    fresh = [highprec.log_q_s(kind, n_s, n_b, kappa, s) for s in (0.3, 0.5, 0.7)]
    assert highprec._pair_geometry.cache_info().misses == 1
    # one real eigendecomposition per state, none per s
    assert len(jacobi_calls) == 2
    again = [highprec.log_q_s(kind, n_s, n_b, kappa, s) for s in (0.3, 0.5, 0.7)]
    assert len(jacobi_calls) == 2
    # The geometry holds mpf in plain lists, and neither it nor the per-s
    # path uses mpmath's matrix type or its eigensolver.
    for name in ("matrix", "eigsy"):
        monkeypatch.setattr(mp, name, None)
        monkeypatch.setattr(mp.mp, name, None)
    with mp.workdps(highprec.DPS):
        moments = pair_moments(kind, mp.mpf(n_s), mp.mpf(n_b), mp.mpf(kappa), "agnostic")
        geometry = highprec._geometry(*moments)
        uncached = [highprec._log_q_at(geometry, mp.mpf(s)) for s in (0.3, 0.5, 0.7)]
    assert fresh == again == uncached
    with pytest.raises(ValueError, match="unknown model"):
        highprec.log_q_s(kind, n_s, n_b, kappa, 0.5, model="legcy")


def _tmss_gram():
    # K K^T of the tmss rho1, K = L^-1 Omega L^-T, through mpmath's own matrices
    cov = mp.matrix(pair_moments("tmss", mp.mpf(0.8), mp.mpf(2.5), mp.mpf(0.15))[3])
    inv = mp.cholesky(cov) ** -1
    omega = mp.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    anti = inv * omega * inv.T
    return anti * anti.T


def _jacobi_cases():
    rng = np.random.default_rng(23)
    cases = []
    for dim in range(2, 7):
        b = mp.matrix(rng.standard_normal((dim, dim)).tolist())
        cases.append((b + b.T) / 2)
        cases.append(mp.diag(rng.standard_normal(dim).tolist()))
        # eigenvalues 1, 1, 2, 2, ... in a random orthonormal basis
        q = mp.qr(mp.matrix(rng.standard_normal((dim, dim)).tolist()))[0]
        cases.append(q * mp.diag([1 + k // 2 for k in range(dim)]) * q.T)
    # not diagonal, unlike K K^T of one mode or of the tmss rho0
    gram = _tmss_gram()
    assert abs(gram[0, 2]) > 0.01
    cases.append(gram)
    return cases


def test_jacobi_matches_mpmath_eigsy():
    with mp.workdps(highprec.DPS):
        for a in _jacobi_cases():
            dim = a.rows
            evals, vecs = highprec._jacobi(a.tolist())
            ref = mp.eigsy(a)[0]
            scale = max(abs(x) for x in ref)
            assert evals == sorted(evals)
            for e, r in zip(evals, ref):
                assert abs(e - r) <= 1e-55 * abs(r)
            for i in range(dim):
                for j in range(dim):
                    back = mp.fsum(vecs[k][i] * evals[k] * vecs[k][j] for k in range(dim))
                    assert abs(back - a[i, j]) <= 1e-55 * scale
                    dot = mp.fdot(vecs[i], vecs[j])
                    assert abs(dot - (i == j)) <= 1e-55


def test_imports_only_mpmath_and_pair_moments():
    # highprec is an independent route: it shares the hypothesis-pair
    # moments with production and nothing else.
    tree = ast.parse(inspect.getsource(highprec))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{'.' * node.level}{node.module}.{a.name}" for a in node.names)
    assert imported == {
        "__future__.annotations", "functools.lru_cache", "mpmath", ".target.pair_moments"
    }


@pytest.mark.parametrize("s", [0, 1, 1.5, -0.2, float("nan")])
def test_log_q_s_rejects_s_outside_unit_interval(s):
    # s = 1.5 used to return a complex mpc, s = 0 to divide by zero
    with pytest.raises(ValueError, match=r"s must lie in \(0, 1\), got "):
        highprec.log_q_s("coherent", 1.0, 1.0, 0.1, s)


@pytest.mark.parametrize("kind", ["coherent", "tmss"])
@pytest.mark.parametrize("n_b", [1e58, 1e100])
def test_log_q_half_at_a_huge_background_matches_twice_the_digits(kind, n_b, monkeypatch):
    # With log_ratio ~ -1/nu, 1 - exp(p log_ratio) lost log10(nu) of the DPS
    # digits: coherent at N_B = 1e58 came out 1.6% off, and from 1e62 on it
    # divided by zero.  expm1 keeps them all.
    dps = highprec.DPS
    value = highprec.log_q_half(kind, 1.0, n_b, 0.1)
    monkeypatch.setattr(highprec, "DPS", 2 * dps)
    highprec._pair_geometry.cache_clear()
    try:
        doubled = highprec.log_q_half(kind, 1.0, n_b, 0.1)
    finally:
        highprec._pair_geometry.cache_clear()
    with mp.workdps(2 * dps):
        assert abs(value / doubled - 1) < mp.mpf(10) ** -40
