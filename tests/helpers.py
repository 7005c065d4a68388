"""Test-side constructors and oracles for amplitude tensors.

``from_entries`` builds a tensor from keyed amplitudes, and
``resynthesize_tensor`` rebuilds one from transform vectors key by key,
independently of the array gather in ``extract_transforms``.
"""

from typing import Mapping

import numpy as np

from stardelta.domain import ABOVE, BELOW, OFFDIAG, AmplitudeTensor, EntryKey, _entry_index
from stardelta.transforms import TransformVectors4

# the (sig, tau) channel of each slot pair of xi, then chi
CHANNELS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def from_entries(n: int, entries: Mapping[EntryKey, complex]) -> AmplitudeTensor:
    """Tensor of an n-edge star from keyed amplitudes; keys that coincide
    (an off-diagonal quadrant under two sector tags) add up."""
    amps = np.zeros((n, n, 2, 2, 2, 2), dtype=complex)
    for key, amp in entries.items():
        amps[_entry_index(n, key)] += amp
    return AmplitudeTensor(amps)


def resynthesize_tensor(tv: TransformVectors4, k: float) -> AmplitudeTensor:
    """Inverse of extract_transforms for a tensor with k in assignment slot 1.

    Slot 2c + s of (xi, chi) is the channel CHANNELS[c] at assignment slot
    s + 1, weighted by kappa; the wave amplitude is -sig*tau*psi/kappa.
    Off the diagonal, where hat = check, the check values are kept.
    """
    kappa = np.sqrt(1.0 - k * k)
    entries = {}
    for i in range(1, tv.n + 1):
        for j in range(1, tv.n + 1):
            if i == j:
                sectors = ((ABOVE, tv.hat_xi, tv.hat_chi), (BELOW, tv.check_xi, tv.check_chi))
            else:
                sectors = ((OFFDIAG, tv.check_xi, tv.check_chi),)
            for sector, xi, chi in sectors:
                psi = np.concatenate([xi[i - 1, j - 1], chi[i - 1, j - 1]])
                for c, (sig, tau) in enumerate(CHANNELS):
                    for s in (0, 1):
                        entries[(i, j, sector, sig, tau, s + 1)] = -sig * tau * psi[2 * c + s] / kappa
    return from_entries(tv.n, entries)
