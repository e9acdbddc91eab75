"""Score explanations: exactness, order-invariance, serialization.

The explanation contract is strict: the explain path reproduces the
non-explaining ranking bit for bit (same floats, same order), and every
contribution list sums back to the RankSVM decision score within 1e-9.
"""

import json

import numpy as np
import pytest

from repro.features import RelevanceModel
from repro.obs import MetricsRegistry, Tracer
from repro.obs.quality import QualityMonitor
from repro.obs.explain import (
    FeatureContribution,
    RankExplanation,
    explain_ranking,
    feature_group_of,
)
from repro.ranking import RankSVM
from repro.ranking.model import FeatureAssembler
from repro.runtime import (
    PackedRelevanceStore,
    QuantizedInterestingnessStore,
    RankerService,
)


class TestFeatureContributions:
    def _fitted(self, kernel="linear"):
        svm = RankSVM(epochs=40, kernel=kernel)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 6))
        svm.fit(X, X[:, 0], np.repeat(np.arange(8), 5))
        return svm, rng.normal(size=(25, 6))

    def test_rows_sum_to_decision_function(self):
        svm, X = self._fitted()
        contributions = svm.feature_contributions(X)
        assert contributions.shape == X.shape
        np.testing.assert_allclose(
            contributions.sum(axis=1),
            svm.decision_function(X),
            atol=1e-9,
            rtol=0,
        )

    def test_zero_weight_column_contributes_zero(self):
        svm, X = self._fitted()
        svm.weights_ = svm.weights_.copy()
        svm.weights_[2] = 0.0
        contributions = svm.feature_contributions(X)
        assert np.all(contributions[:, 2] == 0.0)
        # standardized values stay meaningful even with a zero weight
        standardized = svm.standardize(X)
        assert np.any(standardized[:, 2] != 0.0)

    def test_rbf_kernel_refuses(self):
        svm, X = self._fitted(kernel="rbf")
        assert not svm.is_linear
        with pytest.raises(ValueError):
            svm.feature_contributions(X)

    def test_unfitted_refuses(self):
        with pytest.raises(RuntimeError):
            RankSVM().feature_contributions(np.zeros((1, 3)))


class TestFeatureGroups:
    def test_taxonomy_and_relevance_groups(self):
        assert feature_group_of("type:person") == "taxonomy"
        assert feature_group_of("type:none") == "taxonomy"
        assert feature_group_of("relevance") == "relevance"
        assert feature_group_of("no_such_feature") == "other"

    def test_known_features_map_to_table1_groups(self):
        from repro.features.interestingness import FEATURE_GROUPS

        for group, names in FEATURE_GROUPS.items():
            for name in names:
                if name == "high_level_type":
                    continue  # expands to type:* columns
                assert feature_group_of(name) == group


@pytest.fixture(scope="module")
def serving(env_world, env_extractor, env_miner, env_pipeline):
    phrases = [c.phrase for c in env_world.concepts]
    interestingness = QuantizedInterestingnessStore.build(env_extractor, phrases)
    model = RelevanceModel.mine_all(env_miner, phrases[:30])
    relevance = PackedRelevanceStore.build(model)
    svm = RankSVM(epochs=30)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 16))
    svm.fit(X, X[:, 0], np.repeat(np.arange(8), 5))
    return env_pipeline, interestingness, relevance, svm


def _service(serving, **kwargs):
    pipeline, interestingness, relevance, svm = serving
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("tracer", Tracer(sample_every=0))
    return RankerService(pipeline, interestingness, relevance, svm, **kwargs)


class TestExplainableRanker:
    def test_order_and_scores_identical_to_plain_path(
        self, serving, env_stories
    ):
        service = _service(serving)
        for story in env_stories[:4]:
            plain = service.process(story.text, top=10)
            ranked, explanations = service.process(
                story.text, top=10, explain=True
            )
            assert [(d.phrase, d.score) for d in plain] == [
                (d.phrase, d.score) for d in ranked
            ]
            assert len(explanations) == len(ranked)

    def test_explanations_align_and_sum_exactly(self, serving, env_stories):
        service = _service(serving)
        ranked, explanations = service.process(
            env_stories[0].text, explain=True
        )
        assert ranked, "story must produce rankable detections"
        for index, (detection, explanation) in enumerate(
            zip(ranked, explanations)
        ):
            assert explanation.phrase == detection.phrase
            assert explanation.rank == index
            assert explanation.score == detection.score
            assert abs(
                explanation.contribution_sum() - explanation.decision_score
            ) < 1e-9
            assert (
                explanation.decision_score + explanation.tie_break
                == pytest.approx(explanation.score, abs=1e-12)
            )

    def test_group_totals_fold_the_contributions(self, serving, env_stories):
        service = _service(serving)
        __, explanations = service.process(env_stories[0].text, explain=True)
        explanation = explanations[0]
        groups = explanation.group_contributions()
        assert sum(groups.values()) == pytest.approx(
            explanation.contribution_sum(), abs=1e-9
        )
        assert "relevance" in groups  # the appended relevance column

    def test_to_dict_json_round_trip(self, serving, env_stories):
        service = _service(serving)
        __, explanations = service.process(
            env_stories[0].text, top=3, explain=True
        )
        payload = json.loads(json.dumps([e.to_dict() for e in explanations]))
        assert payload[0]["rank"] == 0
        first = payload[0]["contributions"][0]
        assert set(first) == {
            "name", "group", "value", "standardized", "weight", "contribution"
        }
        assert payload[0]["groups"]

    def test_empty_document_explains_to_nothing(self, serving):
        service = _service(serving)
        ranked, explanations = service.process("", explain=True)
        assert ranked == []
        assert explanations == []

    def test_sampled_trace_carries_explanations(self, serving, env_stories):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, sample_every=1)
        service = _service(serving, registry=registry, tracer=tracer)
        service.process(env_stories[0].text, top=2, explain=True)
        assert len(tracer.recent) == 1
        meta = tracer.recent[0]["meta"]
        assert len(meta["explanations"]) <= 2
        assert meta["explanations"][0]["contributions"]

    def test_plain_process_keeps_legacy_return_shape(
        self, serving, env_stories
    ):
        service = _service(serving)
        result = service.process(env_stories[0].text, top=5)
        assert isinstance(result, list)  # not a tuple

    def test_direct_ranker_matches_concept_ranker(
        self, serving, env_stories, env_pipeline
    ):
        """explain_ranking over a ConceptRanker's scoring pass reproduces
        its rank_document exactly."""
        from repro.ranking.model import ConceptRanker

        __, interestingness, relevance, svm = serving
        assembler = FeatureAssembler(
            extractor=interestingness, relevance_scorer=relevance
        )
        plain = ConceptRanker(assembler, svm)
        annotated = env_pipeline.process(env_stories[1].text)
        known = [
            d for d in annotated.rankable() if d.phrase in interestingness
        ]
        from repro.detection.pipeline import AnnotatedDocument

        pruned = AnnotatedDocument(text=annotated.text, detections=known)
        expected = plain.rank_document(pruned)
        phrases = [d.phrase for d in known]
        scored = plain.scoring_pass(*assembler.rows_of(phrases), annotated.text)
        order = scored.order()
        explanations = explain_ranking(
            plain, scored, order, [phrases[i] for i in order]
        )
        assert expected
        assert [(d.phrase, d.score) for d in expected] == [
            (e.phrase, e.score) for e in explanations
        ]

    def test_rbf_service_raises_on_explain(self, serving, env_stories):
        """A non-linear model refuses to explain before the quality
        monitor sees the ranking."""
        pipeline, interestingness, relevance, __ = serving
        svm = RankSVM(epochs=20, kernel="rbf", n_components=32)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 16))
        svm.fit(X, X[:, 0], np.repeat(np.arange(8), 5))
        monitor_registry = MetricsRegistry()
        service = RankerService(
            pipeline, interestingness, relevance, svm,
            registry=MetricsRegistry(), tracer=Tracer(sample_every=0),
            quality=QualityMonitor(registry=monitor_registry),
        )
        story = next(s for s in env_stories if service.process(s.text))

        def observed():
            snap = monitor_registry.snapshot()["quality_rankings_total"]
            return snap["series"][0]["value"]

        before = observed()
        assert before >= 1
        with pytest.raises(ValueError):
            service.process(story.text, explain=True)
        assert observed() == before


class TestExplanationDataclasses:
    def test_contribution_sum_and_dict(self):
        contributions = [
            FeatureContribution("a", "other", 1.0, 0.5, 2.0, 1.0),
            FeatureContribution("b", "other", 2.0, -0.5, 1.0, -0.5),
        ]
        explanation = RankExplanation(
            phrase="x", rank=0, score=0.5, decision_score=0.5,
            tie_break=0.0, relevance=3.0, contributions=contributions,
        )
        assert explanation.contribution_sum() == 0.5
        assert explanation.group_contributions() == {"other": 0.5}
        assert explanation.to_dict()["phrase"] == "x"
