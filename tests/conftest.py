import zlib

import pytest

from regime_bench import core, masks, missingness, synth

# hand-built gap process used to stress the estimation and generation pipeline
INJECTED_ONSET = (
    0.06, 0.05, 0.07, 0.06, 0.05, 0.06,  # night hours 0-5
    0.04, 0.03, 0.05, 0.04, 0.03, 0.04,
    0.05, 0.03, 0.04, 0.05, 0.04, 0.03,
    0.04, 0.05, 0.03, 0.04, 0.05, 0.04,
)
INJECTED_PI_SHORT = {"day": 0.3, "night": 0.5}


def build_injected_model():
    day_mix = missingness.make_mixture(0.02, 0.05, 0.01, 120.0, 15.0, 0.0005)
    night_mix = missingness.make_mixture(0.05, 0.08, 0.004, 100.0, 25.0, 0.0008)
    return missingness.MissingnessModel(
        INJECTED_ONSET,
        missingness.RegimeModel(INJECTED_PI_SHORT["day"], day_mix),
        missingness.RegimeModel(INJECTED_PI_SHORT["night"], night_mix),
    )


def gapped_days(model, n_days, master_seed=2024, noise_std=2.0, synth_seed=11):
    truth = synth.generate(
        synth.SynthConfig(days=n_days, noise_std=noise_std, seed=synth_seed)
    ).episodes
    gapped = []
    for ep in truth:
        seed = masks.derive_seed(master_seed, ep.patient_id, ep.episode_id)
        mask = masks.generate_mask(ep.T, ep.start_time_of_day, model, seed)
        gapped.append(masks.apply_mask(ep, mask))
    return truth, gapped


@pytest.fixture(scope="session", autouse=True)
def private_read_cache(tmp_path_factory):
    """Point read_columns' cache at a temporary directory, for this process and its children."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(params=[1, 2, 3], ids=lambda rows: f"merge_rows={rows}")
def small_chunks(request, monkeypatch):
    """Merge ingested rows into grid cells one to three rows at a time, so every file
    crosses chunk cuts; the test files are far smaller than one chunk of MERGE_ROWS."""
    monkeypatch.setattr(core, "MERGE_ROWS", request.param)
    return request.param


@pytest.fixture
def a_small_chunk(request, monkeypatch):
    """small_chunks for suites too slow to run three times: one of the three sizes per test,
    picked from its name, so that each size runs on about a third of the suite's cases."""
    rows = 1 + zlib.crc32(request.node.name.encode()) % 3
    monkeypatch.setattr(core, "MERGE_ROWS", rows)
    return rows


@pytest.fixture(scope="session")
def injected_model():
    return build_injected_model()


@pytest.fixture(scope="session")
def gapped_corpus(injected_model):
    return gapped_days(injected_model, 600)


@pytest.fixture(scope="session")
def fitted_model(gapped_corpus):
    _, gapped = gapped_corpus
    return missingness.fit_model(gapped)
