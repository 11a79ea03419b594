"""Packet sizes for the NoI simulator (paper Section IV).

Control packets are 8 B and data packets 72 B; with the paper's 8 B link
width that is 1 and 9 flits respectively, injected with equal likelihood
by the synthetic generators.
"""

from __future__ import annotations

LINK_WIDTH_BYTES = 8
CONTROL_BYTES = 8
DATA_BYTES = 72

CONTROL_FLITS = CONTROL_BYTES // LINK_WIDTH_BYTES  # 1
DATA_FLITS = DATA_BYTES // LINK_WIDTH_BYTES  # 9

#: Mean flits per packet under the 50/50 control/data mix.
MEAN_FLITS_PER_PACKET = (CONTROL_FLITS + DATA_FLITS) / 2
