"""A 50-digit truth for the Maslov quasi-state of a semi-simple element, from
mpmath alone: none of spqs' eigensolves, classification or Krein pairing."""

from mpmath import mp


def maslov_truth(B) -> mp.mpf:
    """Minus the oriented imaginary block parameters of B, at mp.dps = 50.

    B is first projected exactly onto sp(2n, R) by (A - A^omega) / 2.  Its
    eigenvalues with |Re lambda| < 1e-35 and Im lambda > 0 are the imaginary
    ones, and those within 1e-20 of each other form a group.  Each member
    contributes -Im lambda times the sign of the matching eigenvalue (both in
    ascending order) of the group's Krein Gram matrix (i/2) W^T Omega conj(W),
    whose columns W are the members' eigenvectors."""
    with mp.workdps(50):
        A = mp.matrix(B.mat.tolist())
        O = mp.matrix(B.space.omega_matrix.tolist())
        P = (A + O * A.T * O) / 2  # A^omega = Omega^-1 A^T Omega = -Omega A^T Omega
        lam, V = mp.eig(P)
        imag = sorted((z.imag, j) for j, z in enumerate(lam)
                      if abs(z.real) < mp.mpf("1e-35") and z.imag > 0)
        groups = []
        for b, j in imag:
            if groups and b - groups[-1][-1][0] < mp.mpf("1e-20"):
                groups[-1].append((b, j))
            else:
                groups.append([(b, j)])
        truth = mp.mpf(0)
        for group in groups:
            W = mp.matrix(P.rows, len(group))
            for col, (_, j) in enumerate(group):
                W[:, col] = V[:, j]
            mu = mp.eighe(mp.mpc(0, 0.5) * (W.T * O * W.conjugate()), eigvals_only=True)
            truth -= sum(b * mp.sign(m) for (b, _), m in zip(group, sorted(mu)))
        return truth
