"""hsiduo: dual-branch real/complex 3D-CNN hyperspectral classifier.

__init__, __main__, schema and errors import no numpy, so the entry point
can pin the thread pools before numpy loads.
"""

__version__ = "0.1.0"
