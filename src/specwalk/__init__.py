"""Transport efficiency of classical and quantum walks from graph spectra.

The package builds the standard graph families, eigendecomposes their
Laplacians, evaluates averaged return probabilities for continuous-time
random walks and quantum walks (plus their continuum-DOS counterparts),
and quantifies spreading efficiency through decay-law fits of the
resulting series.
"""

__version__ = "0.1.0"

from .continuum import (Lifshits, PowerLawDecay, PowerSemicircle,
                        StretchedExpDecay, asymptotic_law,
                        classical_return_continuum, lattice_return_1d_product,
                        parse_dos_spec, quantum_return_bound_continuum)
from .errors import NumericalError, ParseError, ResourceLimitError
from .graphs import (Graph, build_dendrimer, build_erdos_renyi,
                     build_hypercubic, build_ring, build_star,
                     dendrimer_node_count, from_edge_list, laplacian,
                     parse_graph_spec)
from .scaling import (EfficiencyRatioSeries, EfficiencyReport, Envelope,
                      PowerLawFit, SaturationStats, StretchedExpFit,
                      detect_crossover, efficiency_ratio_series,
                      extract_envelope, fit_power_law, fit_stretched_exp,
                      saturation)
from .spectral import Spectrum, decompose, degeneracy_table, graph_spectrum
from .transport import (TimeGrid, TransportSeries, chi_matrix, linear_grid,
                        log_grid, merge_grids, transport_series)
