"""write_json against json.dumps: the same bytes, without holding the whole text."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regime_bench import formats

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=5), children, max_size=5),
    max_leaves=40,
)


class TestWriteJson:
    @given(doc=st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=6),
           batch=st.sampled_from([1, 2, 3, 4096]))
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_json_dumps(self, tmp_path_factory, doc, batch):
        path = tmp_path_factory.mktemp("json") / "doc.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "JSON_BATCH", batch)
            formats.write_json(path, doc)
        expected = json.dumps({"schema_version": formats.SCHEMA_VERSION, **doc}, indent=2) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_peak_is_a_batch_not_the_document(self, tmp_path):
        """json.dumps held about 42 MiB here: every chunk of the encoding, then the text."""
        doc = {"windows": [{"patient_id": "synth-001", "episode_id": i // 100, "start": i % 100,
                            "length": 6} for i in range(50_000)]}
        tracemalloc.start()
        try:
            formats.write_json(tmp_path / "windows.json", doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak
        assert json.loads((tmp_path / "windows.json").read_text())["windows"] == doc["windows"]
