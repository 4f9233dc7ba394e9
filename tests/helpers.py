import numpy as np

from fibwalk.walk import Timeframe


def circle_multisets_close(a_angles, b_angles, tol):
    """Compare two angle multisets on the circle within tol.

    The angle origin is moved into the widest point-free arc of the
    combined set, so sorting never splits values that straddle a seam.
    """
    a = np.sort(np.mod(np.asarray(a_angles, dtype=float), 2.0 * np.pi))
    b = np.sort(np.mod(np.asarray(b_angles, dtype=float), 2.0 * np.pi))
    if a.shape != b.shape:
        return False
    both = np.sort(np.concatenate([a, b]))
    gaps = np.diff(np.append(both, both[0] + 2.0 * np.pi))
    k = int(np.argmax(gaps))
    origin = both[k] + gaps[k] / 2.0
    a = np.sort(np.mod(a - origin, 2.0 * np.pi))
    b = np.sort(np.mod(b - origin, 2.0 * np.pi))
    return float(np.max(np.abs(a - b))) < tol if a.size else True


def _dense_coin(angles):
    """Block-diagonal R(theta_x) on each site's (L, R) pair, 2N x 2N."""
    n = len(angles)
    c, s = np.cos(angles), np.sin(angles)
    coin = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    i = 2 * np.arange(n)
    coin[i, i], coin[i, i + 1], coin[i + 1, i], coin[i + 1, i + 1] = c, s, -s, c
    return coin


def dense_unitary(config):
    """The walk unitary as an explicit product of 2N x 2N coin and shift matrices.

    A reference for the matrix-free step that shares no code with it.  The
    shift moves L one site left and R one site right; the two hops that
    would leave the chain become |0,L> -> alpha_L |0,R> and
    |N-1,R> -> alpha_R |N-1,L>.  PLAIN is S @ C, SYMMETRIZED is
    C^(1/2) @ S @ C^(1/2).
    """
    n = config.n_sites
    x = np.arange(n - 1)
    shift = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    shift[2 * x, 2 * x + 2] = 1.0  # (x+1, L) -> (x, L)
    shift[2 * x + 3, 2 * x + 1] = 1.0  # (x, R) -> (x+1, R)
    shift[1, 0] = config.boundary_phase_left
    shift[2 * n - 2, 2 * n - 1] = config.boundary_phase_right
    if config.timeframe is Timeframe.PLAIN:
        return shift @ _dense_coin(config.angles())
    half = _dense_coin(config.angles() / 2.0)
    return half @ shift @ half
