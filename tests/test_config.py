import json

import pytest

from levy_elliptic.config import ConfigError, load_config
from levy_elliptic.domain import HyperBox
from levy_elliptic.functions import Constant, Indicator, Polynomial, SpectralFunction
from levy_elliptic.measures import AlphaStable, NullMeasure, SymmetricTwoPoint


def config_file(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCutoff:
    def test_default_is_a_count(self):
        assert load_config(None, []).cutoff == {"count": 256}

    def test_file_may_set_a_threshold(self, tmp_path):
        path = config_file(tmp_path, {"cutoff": {"threshold": 100}})
        assert load_config(path, []).cutoff == {"lambda_max": 100.0}

    def test_threshold_override_alone_replaces_the_default_count(self):
        assert load_config(None, ["lambda_max=100"]).cutoff == {"lambda_max": 100.0}

    @pytest.mark.parametrize("count", [256, 64])
    def test_count_and_threshold_overrides_together_are_refused(self, count):
        with pytest.raises(ConfigError, match="exactly one of count or threshold"):
            load_config(None, [f"K={count}", "lambda_max=100"])

    def test_file_naming_both_is_refused(self, tmp_path):
        path = config_file(tmp_path, {"cutoff": {"count": 256, "threshold": 100}})
        with pytest.raises(ConfigError, match="exactly one of count or threshold"):
            load_config(path, [])

    def test_override_replaces_the_file_cutoff(self, tmp_path):
        path = config_file(tmp_path, {"cutoff": {"threshold": 100}})
        assert load_config(path, ["K=64"]).cutoff == {"count": 64}
        assert load_config(path, ["K=64", "K=32"]).cutoff == {"count": 32}

    def test_unknown_cutoff_key_is_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(config_file(tmp_path, {"cutoff": {"thresh": 100}}), [])


class TestReplacedObjects:
    def test_file_may_name_another_measure(self, tmp_path):
        doc = {"triplet": {"measure": {"kind": "two_point", "rate": 1.0, "magnitude": 1.0}}}
        assert isinstance(load_config(config_file(tmp_path, doc), []).noise.triplet.measure, SymmetricTwoPoint)

    @pytest.mark.parametrize(
        "block,key,value,descriptor",
        [
            ("weak", "phi", {"kind": "constant", "value": 2.0}, Constant(2.0)),
            ("cf", "f", {"kind": "indicator", "boxes": [[[0.0, 0.5]]]}, Indicator((HyperBox(((0.0, 0.5),)),))),
            ("isometry", "f", {"kind": "polynomial", "coeffs": [0.0, 1.0]}, Polynomial((0.0, 1.0))),
        ],
    )
    def test_file_may_name_another_function(self, tmp_path, block, key, value, descriptor):
        cfg = load_config(config_file(tmp_path, {block: {key: value}}), [])
        assert cfg.blocks[block][key] == descriptor

    def test_other_keys_still_merge(self, tmp_path):
        cfg = load_config(config_file(tmp_path, {"weak": {"replicates": 3}}), [])
        weak = cfg.blocks["weak"]
        assert set(weak) == {"phi", "replicates"} and weak["replicates"] == 3
        # Dataclass == cannot compare arrays: the default phi e_1 by its indices and coefficients.
        assert isinstance(weak["phi"], SpectralFunction)
        assert weak["phi"].system.indices.tolist() == [[1]] and weak["phi"].coeffs.tolist() == [1.0]

    def test_override_replaces_an_object_whole_as_a_file_does(self):
        cfg = load_config(None, ["measure=alpha:1.5", "triplet.measure.alpha=1.2"])
        assert cfg.noise.triplet.measure == AlphaStable(1.2)
        with pytest.raises(ConfigError, match="^config error at triplet.measure.kind: unknown measure kind"):
            load_config(None, ["triplet.measure.alpha=1.2"])
        with pytest.raises(ConfigError, match="^config error at cf.f: expected an object whose kind"):
            load_config(None, ["cf.f.value=2"])

    def test_non_object_block_is_refused_from_every_source(self, tmp_path):
        for path, items in ((config_file(tmp_path, {"triplet": 3}), []), (None, ["box=null"])):
            with pytest.raises(ConfigError, match="^config error at (triplet|box): expected an object$"):
                load_config(path, items)

    def test_unknown_key_beside_a_replaced_object_is_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="weak.phj"):
            load_config(config_file(tmp_path, {"weak": {"phj": {"kind": "constant"}}}), [])


class TestSeed:
    # The streams key on 64 bits: 2^64 + 5 once drew the atoms of seed 5.
    def test_seed_above_64_bits_is_refused_from_the_flag_and_a_file(self, tmp_path):
        top = (1 << 64) - 1
        assert load_config(None, [], seed=top).seed == top
        with pytest.raises(ConfigError, match=r"^config error at seed: seed must be an integer in \[0, 2\^64\)"):
            load_config(None, [], seed=top + 6)
        with pytest.raises(ConfigError, match=r"^config error at seed: seed must be an integer in \[0, 2\^64\)"):
            load_config(config_file(tmp_path, {"seed": top + 1}), [])


class TestWorkers:
    def test_default_is_one_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("LEVY_ELLIPTIC_WORKERS", "4")
        assert load_config(None, []).workers == 1

    def test_flag_beats_override_beats_file(self, tmp_path):
        path = config_file(tmp_path, {"workers": 2})
        assert load_config(path, []).workers == 2
        assert load_config(path, ["workers=3"]).workers == 3
        assert load_config(path, ["workers=3"], workers=4).workers == 4


class TestMeasureOverride:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("null", NullMeasure()),
            ('{"kind": "null"}', NullMeasure()),
            ("alpha:1.2", AlphaStable(1.2)),
            ('"alpha:1.2"', AlphaStable(1.2)),
            ("twopoint:2,0.5", SymmetricTwoPoint(2.0, 0.5)),
        ],
    )
    def test_json_object_or_shorthand(self, text, expected):
        assert load_config(None, [f"measure={text}"]).noise.triplet.measure == expected

    @pytest.mark.parametrize("text", ["1.5", "alpha", "cauchy:1"])
    def test_other_values_are_refused_at_the_key(self, text):
        with pytest.raises(ConfigError, match="config error at measure"):
            load_config(None, [f"measure={text}"])


    @pytest.mark.parametrize("text", ["alpha", "cauchy:1", "alpha:x"])
    def test_bad_shorthand_in_a_file_is_refused_at_the_key(self, tmp_path, text):
        path = config_file(tmp_path, {"triplet": {"measure": text}})
        with pytest.raises(ConfigError, match="config error at triplet.measure"):
            load_config(path, [])


class TestMeasureObjects:
    @pytest.mark.parametrize(
        "measure,path",
        [
            ({"kind": "alpha_stable", "alpha": 1.5, "beta": 3}, "triplet.measure.beta"),
            ({"kind": "alpha_stable", "alpha": True}, "triplet.measure.alpha"),
            ({"kind": "alpha_stable"}, "triplet.measure.alpha"),
        ],
    )
    def test_bad_key_is_refused_at_its_path(self, tmp_path, measure, path):
        with pytest.raises(ConfigError) as exc:
            load_config(config_file(tmp_path, {"triplet": {"measure": measure}}), [])
        assert exc.value.path == path

    def test_override_object_is_checked_like_a_file(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, ['measure={"kind": "two_point", "rate": 1.0, "magnitude": 1.0, "size": 2}'])
        assert exc.value.path == "triplet.measure.size"


class TestListEntries:
    @pytest.mark.parametrize(
        "item,path",
        [
            ("K_list=a,b", "sobolev.K_list[0]"),
            ("K_list=1024,2048.0", "sobolev.K_list[1]"),
            ("K_list=[1024,true]", "sobolev.K_list[1]"),
            ("K_list=0,1", "sobolev.K_list[0]"),
            ("grid_levels=4,5,x", "continuity.grid_levels[2]"),
            ("grid_levels=4,5.5,6", "continuity.grid_levels[1]"),
            ("r_list=1.0,x", "sobolev.r_list[1]"),
            ("r_list=[1.0,NaN]", "sobolev.r_list[1]"),
            ("t_list=100,Infinity", "spectral_bound.t_list[1]"),
            ("t_list=100,false", "spectral_bound.t_list[1]"),
        ],
    )
    def test_bad_entry_is_refused_at_its_path(self, item, path):
        with pytest.raises(ConfigError) as exc:
            load_config(None, [item])
        assert exc.value.path == path

    def test_integer_too_large_for_a_float_is_refused(self):
        with pytest.raises(ConfigError) as exc:
            load_config(None, ["r_list=[1.0, 1" + "0" * 400 + "]"])
        assert exc.value.path == "sobolev.r_list[1]"

    def test_good_entries_load(self):
        cfg = load_config(None, ["K_list=1024,2048", "grid_levels=3,4,5", "r_list=1,1.5", "t_list=100,300.5"])
        assert cfg.blocks["sobolev"]["K_list"] == [1024, 2048]
        assert cfg.blocks["spectral_bound"]["t_list"] == [100, 300.5]


class TestValueRanges:
    @pytest.mark.parametrize(
        "item,path,message",
        [
            ("grid_levels=0,4,5", "continuity.grid_levels[0]", "integer >= 1"),
            ("K_list=2048,1024,2048", "sobolev.K_list", "strictly ascending"),
            ("K_list=1024,1024,2048", "sobolev.K_list", "strictly ascending"),
            ("K_list=1024,3000", "sobolev.K_list", "doubling"),
            ("t_list=0,100", "spectral_bound.t_list", "positive"),
            ("t_list=-100,100", "spectral_bound.t_list", "positive"),
            ("t_list=300,100", "spectral_bound.t_list", "strictly increasing"),
            ("t_list=100,100", "spectral_bound.t_list", "strictly increasing"),
            ("grid_levels=5,5,5", "continuity.grid_levels", "distinct"),
            ("grid_levels=6,4,6", "continuity.grid_levels", "distinct"),
            ("r_list=1.0,1.0", "sobolev.r_list", "distinct"),
            ("r_list=1.4,1,1.0", "sobolev.r_list", "distinct"),
        ],
    )
    def test_value_out_of_range_is_refused_at_its_path(self, item, path, message):
        with pytest.raises(ConfigError, match=message) as exc:
            load_config(None, [item])
        assert exc.value.path == path

    def test_unsorted_distinct_levels_and_orders_load(self):
        cfg = load_config(None, ["grid_levels=6,4,5", "r_list=1.6,1.0"])
        assert cfg.blocks["continuity"]["grid_levels"] == [6, 4, 5]
        assert cfg.blocks["sobolev"]["r_list"] == [1.6, 1.0]


class TestRemovedKeys:
    def test_psi_quadrature_override_is_refused(self):
        with pytest.raises(ConfigError, match="^config error at psi_quadrature: unknown key$"):
            load_config(None, ["psi_quadrature=true"])
