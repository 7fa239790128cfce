"""The tree-ordered storage of the transfer product.

``transfer`` gathers each block's cells, and stacks its block results, in
the order ``_tree_order`` gives, so that every level of the pairwise tree
multiplies two contiguous runs.  The pairs, their association and the
per-entry arithmetic are those of the natural-order tree, kept here as an
oracle, so the product is the same bit for bit.
"""

import numpy as np
import pytest

from levlab import propagate
from levlab.potentials import gaussian_wells
from levlab.propagate import BLOCK_ELEMENTS, TransferEngine, _mesh_from_edges, _tree_order

from conftest import random_well_family


def _natural_tree_product(cells):
    """Ordered product of ``(4, m, k)`` propagators stored in cell order:
    each level pairs cells 2u and 2u + 1 through stride-2 views, and an odd
    trailing cell is carried up a level."""
    k = cells.shape[2]
    cells = cells.reshape(2, 2, -1, k)
    while cells.shape[2] > 1:
        m = cells.shape[2]
        half = m // 2
        a = cells[:, :, 0 : 2 * half : 2]
        b = cells[:, :, 1 : 2 * half : 2]
        out = np.empty((2, 2, (m + 1) // 2, k))
        np.multiply(b[:, 0:1], a[0:1], out=out[:, :, :half])
        out[:, :, :half] += b[:, 1:2] * a[1:2]
        if m % 2:
            out[:, :, -1] = cells[:, :, -1]
        cells = out
    return cells.reshape(4, k)


def _natural_transfer(engine, kappas):
    """The transfer entries with every block and every stack in cell order,
    one chunk of at most ``TRANSFER_CHUNK`` momenta at a time."""
    k2 = np.asarray(kappas, dtype=float) ** 2
    chunks = []
    for i in range(0, k2.size, propagate.TRANSFER_CHUNK):
        part = k2[i : i + propagate.TRANSFER_CHUNK]
        rows = max(1, BLOCK_ELEMENTS // part.size)
        blocks = []
        for j in range(0, engine.mesh.n_cells, rows):
            blocks.append(_natural_tree_product(engine._propagators(slice(j, j + rows), part)))
            if len(blocks) > rows:
                blocks = [_natural_tree_product(np.stack(blocks, axis=1))]
        chunks.append(_natural_tree_product(np.stack(blocks, axis=1)))
    return np.concatenate(chunks, axis=1)


def test_tree_order_pairs_neighbours_in_contiguous_runs():
    """For every m up to 513: a permutation; at every level the earlier cells
    of the pairs are the run [:half] and the later cells the run
    [half:2 half], each pair joins two neighbouring spans of cells in the
    natural tree's pairing, and an odd trailing span is stored last."""
    for m in range(1, 514):
        order = _tree_order(m)
        assert sorted(order.tolist()) == list(range(m))
        assert not order.flags.writeable
        spans = [(int(c), int(c)) for c in order]  # first and last cell of each stored product
        while len(spans) > 1:
            size = len(spans)
            half = size // 2
            rank = {span: r for r, span in enumerate(sorted(spans))}
            for earlier, later in zip(spans[:half], spans[half : 2 * half]):
                assert rank[later] == rank[earlier] + 1 and rank[earlier] % 2 == 0, m
                assert later[0] == earlier[1] + 1, m
            if size % 2:
                assert rank[spans[-1]] == size - 1, m
            spans = [(a[0], b[1]) for a, b in zip(spans[:half], spans[half : 2 * half])] + spans[2 * half :]
        assert spans == [(0, m - 1)]


@pytest.fixture(scope="module", params=[1001, 2816])
def engine(request):
    """A two-well Gaussian on a uniform mesh, and member 2's M/2 cell count."""
    n = request.param
    potential = gaussian_wells(random_well_family()[2])
    return TransferEngine(_mesh_from_edges(potential, np.linspace(-9.0, 9.0, n + 1)))


@pytest.mark.parametrize("batch", [1, 2, 10, 20, 40, 137, 200, 600, 7001])
def test_transfer_is_the_natural_order_tree_bit_for_bit(engine, batch):
    kappas = np.geomspace(1e-3, 80.0, batch)
    got = np.array(engine.transfer(kappas))
    assert got.shape == (4, batch)
    assert got.tobytes() == _natural_transfer(engine, kappas).tobytes()


def test_oversized_batch_is_its_chunks_concatenated(engine, monkeypatch):
    """A batch larger than the chunk size gives, bit for bit, the
    concatenation of one call per chunk; the last chunk is short.  A small
    chunk keeps the test quick; the 7001-momentum batch above runs the
    package's own chunk size against the oracle."""
    chunk = 100
    monkeypatch.setattr(propagate, "TRANSFER_CHUNK", chunk)
    kappas = np.geomspace(1e-3, 80.0, 2 * chunk + 37)
    whole = np.array(engine.transfer(kappas))
    parts = [np.array(engine.transfer(kappas[i : i + chunk])) for i in range(0, kappas.size, chunk)]
    assert [p.shape[1] for p in parts] == [chunk, chunk, 37]
    assert whole.tobytes() == np.concatenate(parts, axis=1).tobytes()
