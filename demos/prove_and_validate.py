"""Proving a contract symbolically, then cross-checking it concretely.

The sequent calculus reduces the procedure body to a sequence of state
updates; the trace-abstraction rule consumes the recursive call using
the contract itself as an assumption.  A closed proof can be replayed
step by step by an independent checker, and the differential validator
reruns the procedure for many inputs, checking each produced trace for
membership in the contract's denotation.
"""

from collections import Counter

from tracelet.calculus import ContractAssumption, RuleContext, contract_goal
from tracelet.cli import validate_contract
from tracelet.lang import Binary, IntLit, Var, parse_program
from tracelet.logic import ContractSpec
from tracelet.proofs import check_proof, dump_proof, load_proof
from tracelet.prover import prove_auto

GOOD = """
m(k) {
  r;
  if (k != 0) { r = m(k - 1); r = r + 1 };
  return r
}

main { x; x = m(1) }
"""

BAD = GOOD.replace("r = r + 1", "r = r + 2")

spec = ContractSpec("m",
                    Binary("==", Var("n"), IntLit(0)),
                    Binary(">", Var("n"), IntLit(0)),
                    Var("n"),
                    Binary("-", Var("n"), IntLit(1)))
assumption = ContractAssumption.from_spec(spec)

program = parse_program(GOOD)
ctx = RuleContext.for_program(program, [assumption])

print("=== proving the contract ===")
tree = prove_auto(contract_goal("m"), ctx)
print(f"closed: {tree.closed} ({tree.size()} nodes)")
print("rules used:")
rules, stack = Counter(), [tree]
while stack:
    node = stack.pop()
    rules[node.rule] += 1
    stack.extend(node.children)
for rule, count in sorted(rules.items()):
    print(f"  {rule:20s} x{count}")

print("\n=== independent replay ===")
# the checker reads the proof file: only each step's rule and arguments
# count, and every recorded sequent must match the one it rebuilds
text = dump_proof(tree, "m")
print(f"proof file: {len(text)} bytes")
proc, root = load_proof(text)
problem = check_proof(root, proc, ctx)
print("checker verdict:", "valid" if problem is None else problem)

print("\n=== differential validation, n in 0..10 ===")
report = validate_contract(program, assumption, 0, 10, samples=11, seed=0)
for s in report.samples:
    print(f"  n={s.n:2d}: {s.verdict}")
print("overall:", report.overall)

print("\n=== the off-by-two mutant ===")
mutant = parse_program(BAD)
bad_tree = prove_auto(contract_goal("m"),
                      RuleContext.for_program(mutant, [assumption]))
print(f"proof closed: {bad_tree.closed} "
      f"({len(bad_tree.open_goals())} open goals)")
report = validate_contract(mutant, assumption, 0, 10, samples=11, seed=0)
print("validation:", report.overall, "counterexample:", report.counterexample)
