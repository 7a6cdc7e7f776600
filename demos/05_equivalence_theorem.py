"""Brute-force verification that the category of coverings of a fixed base is
equivalent to its category of liftings.

Both categories are enumerated over a pool of small groups, both functors are
applied to every object and every morphism, and the round trips are checked:
lifting -> covering -> lifting returns the identical tables, while
covering -> lifting -> covering returns an isomorphic covering with an
explicit <f, 1> witness.  Functor laws (identities, all composable
compositions) and the naturality squares are checked numerically.

The S3-based run enumerates about 16 000 morphisms and checks 1.5 million
composable pairs; the demo takes about 2 seconds on a 2-core machine.
"""

from genxmod import standard_pool, verify_equivalence
from genxmod.fixtures import a3_s3, gx1, gx3


def show(base, bound):
    rep = verify_equivalence(base, standard_pool(bound))
    print(f"\nbase {rep.base_name} (pool bound {bound}, groups: {', '.join(rep.pool_groups)})")
    print(f"  liftings: {rep.lifting_count}, coverings: {rep.covering_count}")
    print(f"  lifting-side round trip exact: {rep.roundtrip_lifting_exact}")
    print(f"  covering-side witnesses found: {len(rep.roundtrip_covering_witnesses)}"
          f" / {rep.covering_count}")
    print(f"  morphisms: {rep.lifting_morphism_count} lifting,"
          f" {rep.covering_morphism_count} covering")
    print(f"  morphism functor checks: {rep.morphism_checks_passed} passed,"
          f" {rep.morphism_checks_failed} failed")
    print(f"  functor laws: {rep.functor_law_checks_passed} passed,"
          f" {rep.functor_law_checks_failed} failed")
    print(f"  naturality squares: {rep.naturality_checks_passed} passed,"
          f" {rep.naturality_checks_failed} failed")
    print(f"  verdict: {'equivalent' if rep.ok else 'FAILED'}")


show(gx1(), 4)
show(gx3(), 4)
show(a3_s3(), 6)
