import hashlib
import math

import numpy as np
import pytest

from hopd.filtration import build_clique_filtration, persistence_h1, write_edge_list
from hopd.graphgen import (
    MODELS,
    _gen_ws,
    _raw_draws,
    generate,
    metadata_block,
    model_index,
    model_spec,
    seed_for,
)
from hopd.serialize import to_text

# SHA-256 over seed_for(model_index(model), k), k = 0..9, of the edge list
# plus metadata block, and of the serialized H1 diagram of the normalized
# clique filtration.  Computed before the generators and the H1 reduction
# were vectorized; a rewrite that moves a digest changed the graphs.
PINNED_DIGESTS = {
    "er": (
        "e16f17740418f654c64a1d3015452912b95831058a9811a8f3b14595fba67f59",
        "ff11d8873104949c5c512728e70579f558e10babd20b9a7375589d79a3a82a5b",
    ),
    "ws": (
        "f9ffeee895f8e23939f9730a19146aa5cb81c2a93e36d53f024f77d417c48c13",
        "ab60171564d039cc662683143541f795508740f17b90310b7c346b5f55b12105",
    ),
    "ba": (
        "98641fd43d70f5070213853f7f62751e36a42f7e75386ddf58fd8d4d400ba45f",
        "3a1cd3a033b986bbdc35a43af5467f3c20671ad1c4cc456e96ec08a08ee59e61",
    ),
    "cm": (
        "9861592eb987b5d18c2b65e408d5a2fef2e2099bb7530a3a769c9557d7d2dc12",
        "e1cb8bb8a7ae407e5138800d46849f83cdd57c2171c0e6dda5904ec572837b7d",
    ),
    "sbm": (
        "b097adedd2cb87ffff56ef92a44302134757bf845f6ff004a16ec03ddff2a6f4",
        "43505d2149e28e7a6839df9226bc318de643b5787237d206591a33f09970075d",
    ),
    "chunglu": (
        "2e06565792a3afe6cbc8c93f83d467bb457e2a6e2f5e5ae99c2ede0ad32375b5",
        "3f6aa91a0ac0952551bf0d7b7bb9602b7d810aa9647aff7e9a8d549bf85c9cb5",
    ),
    "ksw": (
        "a6cab1ddc14421becd7b61ce8f0bf4a45df6d74ed7e99b9048eed2007f9ff374",
        "f44d3c1df2c5aefae95af1f15be8d731330bcfa475988d3593546b8db2e30fa2",
    ),
    "girg": (
        "ab04fb77049c9e9e784e140b5d5b4cdb66be304928bc64343efad588ae738f08",
        "9ebfec3604928e970668ac41fffac5c25495892cf8e398e057f78cb7cca3e6ea",
    ),
    "hrg": (
        "56115f73f55d23c8bb752c14c6b86009787c3de52a996187c726bf34e97c9c1f",
        "d2742cc6644d67d87ee5d0ce0f810991dc057775bff25a7c945c684ca2f23085",
    ),
    "ergm": (
        "8985a152e70cd086e0d536dcdba8ec48021e1357dd96840ae74b935a89bcc274",
        "4f05be10d6c8943ab058a2ebfad36bc3f981eb0e710c71e37946ec85ca4886c4",
    ),
}


# SHA-256 over the same 100 graphs, models in MODELS order, of repr() of the
# simplices of each normalized clique filtration; computed while the
# filtration still sorted each edge's common neighbours and sorted the
# simplices through an identity key.
PINNED_SIMPLICES_DIGEST = "148abc626afa1375c6733c9960fab90aa0f5b2e3d3ad296d046807a278a9ad4f"


def _pinned_samples(model):
    spec, idx = model_spec(model), model_index(model)
    return [generate(spec, seed_for(idx, k)) for k in range(10)]


class TestSeedSchedule:
    def test_paper_values(self):
        assert seed_for(0, 0) == 1009193
        assert seed_for(0, 1) == 1018369
        assert seed_for(1, 0) == 2009196

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            seed_for(-1, 0)

    @pytest.mark.parametrize("seed", [1.5, "3", None, -1])
    def test_generate_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError):
            generate(model_spec("er"), seed)

    def test_generate_takes_integer_like_seeds(self):
        spec = model_spec("er")
        sample = generate(spec, np.int64(7))
        assert sample.graph == generate(spec, 7).graph
        assert type(sample.metadata["seed"]) is int


class TestDeterminism:
    @pytest.mark.parametrize("model", MODELS)
    def test_bit_identical_edge_lists(self, model):
        spec = model_spec(model)
        seed = seed_for(model_index(model), 3)
        assert generate(spec, seed).graph == generate(spec, seed).graph

    @pytest.mark.parametrize("model", MODELS)
    def test_edge_lists_match_pinned_digest(self, model):
        h = hashlib.sha256()
        for sample in _pinned_samples(model):
            h.update((write_edge_list(sample.graph) + metadata_block(sample.metadata)).encode())
        assert h.hexdigest() == PINNED_DIGESTS[model][0]

    @pytest.mark.parametrize("model", MODELS)
    def test_h1_matches_pinned_digest(self, model):
        h = hashlib.sha256()
        for sample in _pinned_samples(model):
            h.update(to_text(persistence_h1(build_clique_filtration(sample.graph))).encode())
        assert h.hexdigest() == PINNED_DIGESTS[model][1]

    def test_clique_simplices_match_pinned_digest(self):
        h = hashlib.sha256()
        for model in MODELS:
            for sample in _pinned_samples(model):
                h.update(repr(build_clique_filtration(sample.graph).simplices).encode())
        assert h.hexdigest() == PINNED_SIMPLICES_DIGEST

    def test_different_seeds_differ(self):
        spec = model_spec("er")
        assert generate(spec, 1).graph != generate(spec, 2).graph


def _draws_match_generator(seed, n, draws, uniform_share):
    """Read the same seeded mix of integer and uniform draws from a Generator
    and from `_raw_draws` on a twin Generator; assert they agree draw by draw."""
    expected = np.random.default_rng(seed)
    integer, uniform = _raw_draws(np.random.default_rng(seed), n)
    mix = np.random.default_rng([seed, 1]).random(draws) < uniform_share
    for is_uniform in mix.tolist():
        if is_uniform:
            assert uniform() == expected.random()
        else:
            assert integer() == expected.integers(0, n)


class TestRawDraws:
    @pytest.mark.parametrize("seed", range(0, 240, 30))
    def test_matches_generator_at_ergm_range(self, seed):
        for s in range(seed, seed + 30):  # 240 seeds in all
            _draws_match_generator(s, 50, 400, uniform_share=0.3)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_generator_when_half_the_draws_are_redrawn(self, seed):
        # threshold (2**32 - n) % n = 2**31 - 1: about half the 32-bit draws
        # are redrawn, which moves the next draw to the other half of a word
        _draws_match_generator(seed, 2**31 + 1, 400, uniform_share=0.3)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_generator_across_blocks_of_raw_words(self, seed):
        # 2000 uniforms and 3000 integers read about 3500 words, past the
        # first block of `_RAW_BLOCK` = 2048
        _draws_match_generator(seed, 50, 5000, uniform_share=0.4)

    @pytest.mark.parametrize("n", [-1, 0, 1, 2**32, 2**32 + 1, 2**64])
    def test_rejects_a_range_outside_32_bits(self, n):
        with pytest.raises(ValueError):
            _raw_draws(np.random.default_rng(0), n)


class TestModels:
    def test_er_mean_edge_count(self):
        spec = model_spec("er")
        total = 0
        runs = 200
        for k in range(runs):
            total += generate(spec, seed_for(0, k)).graph.edge_count()
        mean = total / runs
        expected = 0.10 * math.comb(50, 2)
        sigma = math.sqrt(math.comb(50, 2) * 0.10 * 0.90) / math.sqrt(runs)
        assert abs(mean - expected) <= 3 * sigma

    def test_ws_without_rewiring_is_ring(self):
        edges, _ = _gen_ws(np.random.default_rng(5), 4, 0.0)
        assert len(edges) == 100
        degrees = [0] * 50
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        assert set(degrees) == {4}

    def test_ws_keeps_edge_count_under_rewiring(self):
        g = generate(model_spec("ws"), 6).graph
        assert g.edge_count() == 100

    def test_ba_edge_count_formula(self):
        # seed path on m0 = m vertices, then m attachments per new vertex
        for seed in (1, 2, 3):
            g = generate(model_spec("ba"), seed).graph
            assert g.edge_count() == 1 + 2 * 48 == 97

    def test_cm_degree_accounting(self):
        sample = generate(model_spec("cm"), 11)
        meta = sample.metadata
        paired = sample.graph.edge_count() + meta["loops_removed"] + meta["multi_edges_removed"]
        assert paired == 50 * 4 // 2
        degrees = [0] * 50
        for u, v, _ in sample.graph.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert max(degrees) <= 4

    def test_sbm_block_densities(self):
        spec = model_spec("sbm")
        within = between = 0
        for k in range(60):
            g = generate(spec, seed_for(4, k)).graph
            for u, v, _ in g.edges:
                if (u < 25) == (v < 25):
                    within += 1
                else:
                    between += 1
        exp_within = 60 * 0.22 * 2 * math.comb(25, 2)
        exp_between = 60 * 0.04 * 25 * 25
        assert abs(within - exp_within) < 6 * math.sqrt(exp_within)
        assert abs(between - exp_between) < 6 * math.sqrt(exp_between)

    def test_ksw_grid_and_distance_weights(self):
        g = generate(model_spec("ksw"), 8).graph
        # grid edges have unit distance weight; 5x10 grid has 85 local edges
        unit = sum(1 for _, _, w in g.edges if w == 1.0)
        assert unit >= 85
        assert g.edge_count() <= 85 + 50

    def test_geometric_weights_positive(self):
        for model in ("girg", "hrg"):
            g = generate(model_spec(model), 13).graph
            assert all(w > 0 for _, _, w in g.edges)

    def test_ergm_runs_and_is_simple(self):
        g = generate(model_spec("ergm"), 17).graph
        assert g.edge_count() > 0  # validated simple by construction

    @pytest.mark.parametrize("model", MODELS)
    def test_pipeline_to_persistence(self, model):
        sample = generate(model_spec(model), seed_for(model_index(model), 0))
        filt = build_clique_filtration(sample.graph, normalize=True)
        diagram = persistence_h1(filt)
        assert diagram.level == 1

    def test_metadata_block_format(self):
        sample = generate(model_spec("er"), 99)
        block = metadata_block(sample.metadata)
        assert "model=er\n" in block and "seed=99\n" in block
        assert "weight_policy=uniform-marks\n" in block

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            model_spec("nonsense")
