"""Identity-based encryption, trusted authentication and energy
simulation for wireless sensor nodes.

The package layers as follows: curve and ibe provide the pairing-based
cryptography, ake the one-pass key exchange, boot the measured-boot
chain that yields a node's trust value, codec the 127-byte frames,
protocol the node and base-station state machines, energy the joule
accounting, and sim the scenario-driven event loop behind the command
line tool.
"""

__version__ = "0.1.0"

from .errors import AccessViolation, ConfigError, Reject

__all__ = ["AccessViolation", "ConfigError", "Reject", "__version__"]
