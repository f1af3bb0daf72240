"""Transistor-level level-shifter bench: netlists, device model, solver,
measurements, and built-in topologies."""

from .devmodel import (DEFAULT_NMOS, DEFAULT_PMOS, MosBias, MosEval, MosParams,
                       SourceWave, default_params, effective_vth, mosfet_eval,
                       source_value)
from .engine import (OpPoint, SolveOptions, SolverError, SysState, Waveforms,
                     dc_operating_point, transient)
from .measure import (MeasureError, Report, average_power, characterize,
                      characterize_many, output_swing, propagation_delay,
                      static_power)
from .netlist import (Circuit, ElaborationError, NetlistDoc, ParseError,
                      elaborate, parse_netlist, parse_seed_models, parse_value,
                      serialize_netlist)
from .topologies import (TOPOLOGY_IDS, StackSpec, TopoParams, apply_stack,
                         gen, stack_leakage_fixture)

__version__ = "0.1.0"
