import logging

import numpy as np
import pytest

from priorfit.data_io import (export_csv, infer_column_kind,
                              ingest_csv, ingest_features_with_schema)
from priorfit.prior import (CLASSIFICATION, REGRESSION, GeneratorHyperSpace,
                            generate_dataset, sample_generator)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSchemaInference:
    def test_non_numeric_tokens_force_categorical(self):
        assert infer_column_kind(["a", "b", "a"], 3) == "categorical"

    def test_low_cardinality_numeric_is_categorical(self):
        values = [str(i % 3) for i in range(1000)]
        assert infer_column_kind(values, 1000) == "categorical"

    def test_high_cardinality_numeric(self):
        values = [str(i * 0.37) for i in range(1000)]
        assert infer_column_kind(values, 1000) == "numeric"

    def test_missing_only_column_defaults_numeric(self):
        assert infer_column_kind(["", "NA", "?"], 3) == "numeric"


class TestIngest:
    def test_categorical_first_appearance_coding(self, tmp_path):
        path = write(tmp_path, "t.csv", "f,y\na,0\nb,1\na,0\n")
        ds, schemas = ingest_csv(path, target="y")
        np.testing.assert_array_equal(ds.X.data[:, 0], [0.0, 1.0, 0.0])
        feat = next(s for s in schemas if s.name == "f")
        assert feat.categories == {"a": 0, "b": 1}

    def test_missing_numeric_cell_masked(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "a,b,y\n1.5,2.0,0\n,3.0,1\nbogus,4.0,0\n")
        ds, schemas = ingest_csv(path, target="y", overrides={"a": "numeric"})
        assert ds.missing_mask[1, 0] and ds.missing_mask[2, 0]
        assert not ds.missing_mask[0, 0]
        a = next(s for s in schemas if s.name == "a")
        assert a.missing_count == 2

    def test_fully_missing_column_dropped(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b,y\n,1.0,0\n,2.0,1\n")
        ds, schemas = ingest_csv(path, target="y")
        assert ds.d == 1
        assert [s.name for s in schemas] == ["b", "y"]

    def test_target_defaults_to_last_header_column(self, tmp_path):
        path = write(tmp_path, "t.csv", "y,a,b\n0,1.0,x\n1,2.0,y\n0,3.0,z\n")
        ds, schemas = ingest_csv(path)
        assert schemas[-1].name == "b" and schemas[-1].kind == "target"
        assert [s.name for s in schemas[:-1]] == ["y", "a"]

    def test_absent_target_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,y\n1,0\n")
        with pytest.raises(ValueError):
            ingest_csv(path, target="z")

    def test_missing_target_cell_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,y\n1,0\n2,\n")
        with pytest.raises(ValueError):
            ingest_csv(path, target="y")

    def test_classification_target_label_encoded(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,y\n1.0,cat\n2.0,dog\n3.0,cat\n")
        ds, schemas = ingest_csv(path, target="y")
        assert ds.task == CLASSIFICATION
        np.testing.assert_array_equal(ds.y_labels, [0, 1, 0])
        target = next(s for s in schemas if s.kind == "target")
        assert target.categories == {"cat": 0, "dog": 1}

    def test_unparseable_numeric_target_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,y\n1,2.5\n2,oops\n")
        with pytest.raises(ValueError, match="do not parse"):
            ingest_csv(path, target="y", overrides={"y": "numeric"})

    def test_numeric_target_is_regression(self, tmp_path):
        rows = "\n".join(f"{i},{i * 1.7}" for i in range(50))
        path = write(tmp_path, "t.csv", "a,y\n" + rows + "\n")
        ds, _ = ingest_csv(path, target="y", overrides={"y": "numeric"})
        assert ds.task == REGRESSION
        assert ds.y_labels is None

    def test_row_order_preserved(self, tmp_path):
        rows = "\n".join(f"{100 - i},0" for i in range(30))
        path = write(tmp_path, "t.csv", "a,y\n" + rows + "\n")
        ds, _ = ingest_csv(path, target="y", overrides={"a": "numeric"})
        np.testing.assert_array_equal(ds.X.data[:, 0],
                                      [100.0 - i for i in range(30)])

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "")
        with pytest.raises(ValueError):
            ingest_csv(path, target="y")

    @pytest.mark.parametrize("header, repeated", [("a,a,y", "'a'"),
                                                  ("a,y,y", "'y'")])
    def test_duplicate_column_names_rejected(self, tmp_path, header, repeated):
        # columns are keyed by name: a repeated feature would be ingested
        # twice from its last column, a repeated target would drop a column
        path = write(tmp_path, "t.csv", header + "\n1,2,0\n3,4,1\n")
        with pytest.raises(ValueError, match=f"duplicate column names \\[{repeated}\\]"):
            ingest_csv(path, target="y")

    def test_row_wider_than_header_rejected(self, tmp_path):
        # an unquoted comma in a cell would make '5' the target of row 3
        path = write(tmp_path, "t.csv", "a,b,y\n1,2,0\n3,4,5,1\n")
        with pytest.raises(ValueError, match=r"t\.csv: line 3 has 4 cells, the header 3"):
            ingest_csv(path, target="y")
        _, schemas = ingest_csv(write(tmp_path, "train.csv", "a,b,y\n1,2,0\n3,4,1\n"), "y")
        test = write(tmp_path, "test.csv", "a,b\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match=r"test\.csv: line 3 has 3 cells"):
            ingest_features_with_schema(test, schemas)



class TestSchemaReuse:
    def test_unseen_category_becomes_missing(self, tmp_path):
        train = write(tmp_path, "train.csv", "f,y\na,0\nb,1\n")
        _, schemas = ingest_csv(train, target="y")
        test = write(tmp_path, "test.csv", "f\nb\nzebra\na\n")
        x, missing = ingest_features_with_schema(test, schemas)
        np.testing.assert_array_equal(x[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(missing[:, 0], [False, True, False])

    def test_unparseable_numeric_cell_missing_with_warning(self, tmp_path, caplog):
        rows = "\n".join(f"{i * 0.37},{i % 2}" for i in range(30))
        train = write(tmp_path, "train.csv", "a,y\n" + rows + "\n")
        _, schemas = ingest_csv(train, target="y")
        assert schemas[0].kind == "numeric"
        test = write(tmp_path, "test.csv", "a\n1.5\noops\n2.5\n")
        with caplog.at_level(logging.WARNING, logger="priorfit.data_io"):
            x, missing = ingest_features_with_schema(test, schemas)
        np.testing.assert_array_equal(missing[:, 0], [False, True, False])
        np.testing.assert_array_equal(x[[0, 2], 0], [1.5, 2.5])
        warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warned) == 1 and "column 'a'" in warned[0]

    def test_column_absent_rejected(self, tmp_path):
        train = write(tmp_path, "train.csv", "f,y\na,0\nb,1\n")
        _, schemas = ingest_csv(train, target="y")
        test = write(tmp_path, "test.csv", "g\n1\n")
        with pytest.raises(ValueError):
            ingest_features_with_schema(test, schemas)

    def test_duplicate_test_column_rejected(self, tmp_path):
        train = write(tmp_path, "train.csv", "f,y\na,0\nb,1\n")
        _, schemas = ingest_csv(train, target="y")
        test = write(tmp_path, "test.csv", "f,f\na,b\n")
        with pytest.raises(ValueError, match="duplicate column names"):
            ingest_features_with_schema(test, schemas)


class TestDatasetContainer:
    def synthetic(self, seed=3):
        space = GeneratorHyperSpace(categorical_fraction=(0.4, 0.4))
        return generate_dataset(sample_generator(space, seed), 24, seed=1)

    def test_csv_round_trip_with_numeric_overrides(self, tmp_path):
        ds = self.synthetic(seed=5)
        path = tmp_path / "d.csv"
        export_csv(ds, path)
        overrides = {f"x{j}": "numeric" for j in range(ds.d)}
        overrides["target"] = "categorical" if ds.task == CLASSIFICATION else "numeric"
        back, _ = ingest_csv(path, target="target", overrides=overrides)
        np.testing.assert_array_equal(back.X.data, ds.X.data)
        if ds.task == CLASSIFICATION:
            np.testing.assert_array_equal(back.y_labels, ds.y_labels)

    def test_missing_cells_survive_csv(self, tmp_path):
        ds = self.synthetic(seed=7)
        missing = np.zeros((ds.n, ds.d), dtype=bool)
        missing[0, 0] = missing[3, 1] = True
        ds.missing_mask = missing
        path = tmp_path / "d.csv"
        export_csv(ds, path)
        overrides = {f"x{j}": "numeric" for j in range(ds.d)}
        back, _ = ingest_csv(path, target="target", overrides=overrides)
        np.testing.assert_array_equal(back.missing_mask, missing)
