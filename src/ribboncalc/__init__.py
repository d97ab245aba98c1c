"""Handle-calculus engine.

Kirby diagrams with exact integer invariants, signed Casson-handle trees
with positivity analysis, middle-level intersection data with a ribbon
positivity decision, and a stabilization pipeline producing verified
product certificates.
"""

from .abelian import AbelianGroup, cokernel, smith_invariants, symmetric_signature
from .diagram import (Component, DiagramError, DOTTED, FRAMED, ForbiddenMove,
                      KirbyDiagram, MoveError, PAREN, add_cancelling_pair,
                      assert_geometric, blow_down, blow_up,
                      boundary_homology, cancel_pair, dualize, empty_diagram,
                      euler_char, handle_slide, signature, twist_blow_up,
                      zero_dot_swap)
from .middle import (AccessoryLoop, Cap, Finger, FingerGraph, MiddleLevelData,
                     MiddleError, PositivityDecision, RibbonDescriptor,
                     STANDARD_CAP, excess_rows, finger_graph,
                     is_positive_ribbon, make_descriptor, whitney_set)
from .simplify import (NormanResult, Outcome, StabilizationError,
                       StabilizationPlan, VerifyResult, norman_eliminate,
                       norman_trick_step, stabilization_plan, verify_plan)
from .trees import (PositiveWitness, SignedTree, SizeLimit, TreeEdge,
                    TreeError, chplus, is_positive, is_strictly_positive,
                    kuga_blowup_cost, positive_witness, prune_depth,
                    tower_has_positive_branch, truncate, validate_tree)
from .textio import (Command, MoveScript, ParseError, parse_any,
                     parse_diagram, parse_middle, parse_ribbon, parse_script, parse_tree,
                     serialize_diagram, serialize_middle, serialize_ribbon,
                     serialize_script, serialize_tree)
from .scripts import ScriptResult, StepReport, apply_command, run_script, trace_lines
from .render import diagram_dot, finger_dot, tree_dot
from .corpus import (CorpusItem, CorpusReport, corpus_names, corpus_run,
                     corpus_text, summary_table)

from types import ModuleType as _ModuleType

# Every name imported above except the submodules, in import order.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
