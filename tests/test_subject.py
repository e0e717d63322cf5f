"""Subject-attribute detector (paper §III-C)."""
import numpy as np
import pytest

from repro.core import subject
from repro.lake.generator import generate_lake


@pytest.fixture(scope="module")
def labelled_lake():
    return generate_lake(derivations_per_base=4, rows=60, noise=0.3, seed=777)


class TestFeaturesPandas:
    def test_one_row_per_attribute(self, labelled_lake):
        feats = subject.attribute_features_pandas(labelled_lake.tables)
        n_attrs = sum(df.shape[1] for df in labelled_lake.tables.values())
        assert len(feats) == n_attrs

    def test_feature_ranges(self, labelled_lake):
        feats = subject.attribute_features_pandas(labelled_lake.tables)
        assert feats["pos_frac"].between(0, 1).all()
        assert feats["non_numeric"].isin([0.0, 1.0]).all()
        assert feats["null_ratio"].between(0, 1).all()
        assert feats["distinct_ratio"].between(0, 1).all()
        assert (feats["avg_len"] >= 0).all()

    def test_leftmost_position_zero(self, labelled_lake):
        feats = subject.attribute_features_pandas(labelled_lake.tables)
        firsts = feats.groupby("table")["pos_frac"].min()
        assert (firsts == 0.0).all()


class TestModel:
    def test_default_model_cached(self):
        assert subject.default_model() is subject.default_model()

    def test_detector_accuracy(self, labelled_lake):
        """The paper reports ~89% detector accuracy; require >= 75% table-
        level accuracy on a held-out generated lake."""
        feats = subject.attribute_features_pandas(labelled_lake.tables)
        picked = subject.pick_subjects(feats)
        correct = total = 0
        for _, row in picked.iterrows():
            truth = labelled_lake.gt.subject_of[row["table"]]
            if truth is None:
                continue
            total += 1
            if row["attr_id"].split("||", 1)[1] == truth:
                correct += 1
        assert total > 0
        assert correct / total >= 0.75, f"{correct}/{total}"

    def test_one_subject_per_table(self, labelled_lake):
        feats = subject.attribute_features_pandas(labelled_lake.tables)
        picked = subject.pick_subjects(feats)
        assert picked["table"].is_unique

    def test_subject_is_non_numeric(self, labelled_lake):
        feats = subject.attribute_features_pandas(labelled_lake.tables)
        picked = subject.pick_subjects(feats)
        merged = picked.merge(feats, on=["table", "attr_id"])
        assert (merged["non_numeric"] == 1.0).all()

    def test_empty_features(self):
        out = subject.pick_subjects(subject.attribute_features_pandas({}))
        assert len(out) == 0

    def test_train_subject_model_learns(self, labelled_lake):
        feats = subject.attribute_features_pandas(labelled_lake.tables)
        labels = np.array(
            [
                1.0 if labelled_lake.gt.subject_of[t] == c else 0.0
                for t, c in zip(feats["table"], feats["col_name"])
            ]
        )
        model = subject.train_subject_model(feats, labels)
        X = feats[subject.FEATURES].to_numpy(dtype=np.float64)
        assert model.accuracy(X, labels) > 0.8


class TestSparkPath:
    def test_spark_features_match_pandas(self, spark, clean_lake, clean_attrs):
        """Features from the Spark attribute profile equal the pandas path."""
        spark_feats = (
            subject.attribute_features(clean_attrs.toPandas())
            .sort_values("attr_id")
            .reset_index(drop=True)
        )
        pandas_feats = (
            subject.attribute_features_pandas(clean_lake.tables)
            .sort_values("attr_id")
            .reset_index(drop=True)
        )
        assert len(spark_feats) == len(pandas_feats)
        for col in ["pos_frac", "non_numeric", "null_ratio", "distinct_ratio"]:
            np.testing.assert_allclose(
                spark_feats[col].to_numpy(),
                pandas_feats[col].to_numpy(),
                atol=1e-9,
                err_msg=col,
            )

    def test_subject_attributes_df(self, spark, clean_attrs, clean_lake):
        picked = subject.pick_subjects(subject.attribute_features(clean_attrs.toPandas()))
        rows = dict(zip(picked["table"], picked["attr_id"]))
        # A healthy share of detected subjects matches the generator's label.
        hits = sum(
            1
            for t, aid in rows.items()
            if clean_lake.gt.subject_of.get(t) == aid.split("||", 1)[1]
        )
        labelled = sum(1 for t in rows if clean_lake.gt.subject_of.get(t))
        assert labelled > 0 and hits / labelled >= 0.7
