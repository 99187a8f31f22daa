"""Air-to-ground channel models and UAV network performance toolkit.

Each model family is one module, and its names live only there:
``from a2gnet.aue_net import capacity``. Importing the package loads none of
its modules.
"""

__version__ = "0.1.0"
