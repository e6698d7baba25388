"""A plain recursive tree walk, one row at a time: the reference for ``hatepool.gbdt``'s walk.

A feature value equal to a split's threshold goes left and NaN goes right,
and the leaf values are added to the base score one tree at a time, in
tree order.
"""

import numpy as np

from hatepool.gbdt import _sigmoid_array


def leaf_value(node, x):
    if node.is_leaf:
        return node.value
    return leaf_value(node.left if x[node.feature_index] <= node.threshold else node.right, x)


def raw_score(model, x):
    raw = model.base_score
    for tree in model.trees:
        raw += leaf_value(tree, x)
    return raw


def gbdt_predict_proba(model, x):
    """Probability of the positive class for one feature vector."""
    return float(_sigmoid_array(np.array([raw_score(model, x)]))[0])
