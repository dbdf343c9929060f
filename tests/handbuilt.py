"""Hand-built skeletons and rigs shared by the tests.

Plain functions rather than fixtures, in a module whose name no other test
directory uses, so ``from handbuilt import ...`` resolves the same way
whichever directories one pytest run collects.
"""
import numpy as np

from heterskin import model, rigcore

# desk-scale network: same architecture, small dims so tests stay fast
TINY = model.HyperParams(
    vertex_local=24,
    vertex_global=24,
    bone_local=12,
    bone_global=24,
    final_dims=(48, 24),
    local_stages=2,
    resolution=32,
)


def chain_skeleton(positions, parents=None, names=None):
    positions = np.asarray(positions, dtype=np.float64)
    n = len(positions)
    if parents is None:
        parents = [-1] + list(range(n - 1))
    if names is None:
        names = [f"j{i}" for i in range(n)]
    return rigcore.Skeleton.build(names, positions, parents)


def tube_rig(length=1.0, radius=0.1, segments=12, rings=9):
    """Hand-built cylinder along +y with a 2-joint chain, no weights."""
    verts = []
    tris = []
    for iy in range(rings):
        y = length * iy / (rings - 1)
        for ia in range(segments):
            a = 2.0 * np.pi * ia / segments
            verts.append([radius * np.cos(a), y, radius * np.sin(a)])
    for iy in range(rings - 1):
        for ia in range(segments):
            a0 = iy * segments + ia
            a1 = iy * segments + (ia + 1) % segments
            b0 = a0 + segments
            b1 = a1 + segments
            tris.append([a0, b0, a1])
            tris.append([a1, b0, b1])
    mesh = rigcore.Mesh(np.array(verts), np.array(tris, dtype=np.int64))
    skel = chain_skeleton([[0, 0, 0], [0, length / 2, 0], [0, length, 0]])
    return rigcore.Rig(mesh=mesh, skeleton=skel, weights=None, name="tube")
