"""Quickstart — train SRDA, embed, classify.

Run with::

    python examples/quickstart.py

Fits SRDA on a small synthetic face-recognition problem, compares both
solvers, and contrasts it with classic LDA — the 60-second tour of the
public API.
"""

import numpy as np

from repro import LDA, SRDA, SolverConfig
from repro.datasets import make_faces, per_class_split


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. data: 12 subjects, 40 images each, 32x32 pixels
    dataset = make_faces(n_subjects=12, images_per_subject=40, seed=7)
    print(f"dataset: {dataset.n_samples} images, {dataset.n_features} pixels, "
          f"{dataset.n_classes} subjects")

    # 2. the paper's split protocol: l images per subject for training
    train_idx, test_idx = per_class_split(dataset.y, n_per_class=10, rng=rng)
    X_train, y_train = dataset.subset(train_idx)
    X_test, y_test = dataset.subset(test_idx)

    # 3. fit SRDA (alpha = 1.0, the paper's setting for every table)
    model = SRDA(alpha=1.0)
    model.fit(X_train, y_train)
    print(f"solver used: {model.solver_used_} "
          f"(centered={model.centered_})")

    # 4. embed into the (c-1)-dimensional discriminant subspace
    Z = model.transform(X_test)
    print(f"embedding shape: {Z.shape}  (c - 1 = {dataset.n_classes - 1})")

    # 5. classify by nearest class centroid in the embedding
    accuracy = model.score(X_test, y_test)
    print(f"SRDA test accuracy: {accuracy:.3f}")

    # 6. the two solvers are interchangeable
    iterative = SRDA(
        alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=20
    ).fit(X_train, y_train)
    agreement = np.mean(model.predict(X_test) == iterative.predict(X_test))
    print(f"normal-equations vs LSQR prediction agreement: {agreement:.3f}")

    # 7. compare with classic LDA (the expensive baseline SRDA replaces)
    lda_accuracy = LDA().fit(X_train, y_train).score(X_test, y_test)
    print(f"LDA test accuracy:  {lda_accuracy:.3f}")


if __name__ == "__main__":
    main()
