"""Writer of the feature-file format that `synthrep.evaluate.load_features` reads."""

import numpy as np

from synthrep.manifest import fmt_float


def save_features(
    path: str, sample_ids: np.ndarray, class_ids: np.ndarray, features: np.ndarray
) -> None:
    """Line-delimited {sample_id, class_id, feature} records, exact floats."""
    n = features.shape[0]
    if sample_ids.shape != (n,) or class_ids.shape != (n,):
        raise ValueError("ids must parallel features")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n):
            vec = ",".join(fmt_float(v) for v in features[i])
            fh.write(
                '{"sample_id":%d,"class_id":%d,"feature":[%s]}\n'
                % (int(sample_ids[i]), int(class_ids[i]), vec)
            )
