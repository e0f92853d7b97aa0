//! Why a world-construct select ran on the interpreter instead of the
//! algebra route, counted per reason (`isql::route_fallbacks`).
//!
//! The counters are process-wide, so this file holds one test: its binary
//! runs no other statement concurrently.

use isql::{route_fallbacks, RouteFallbacks, Session};

#[test]
fn fallbacks_are_counted_by_reason() {
    let mut s = Session::new();
    s.register("Flights", datagen::flights(3, 40, 6, 3))
        .unwrap();
    s.register("Census", datagen::census(3, 30, 3)).unwrap();
    s.register("Lineitem", datagen::lineitem(3, 60, 3, 4))
        .unwrap();
    let delta = |s: &mut Session, sql: &str| {
        let before = route_fallbacks();
        s.execute(sql).unwrap();
        let after = route_fallbacks();
        RouteFallbacks {
            not_in_fragment: after.not_in_fragment - before.not_in_fragment,
            not_cheaper: after.not_cheaper - before.not_cheaper,
            route_errors: after.route_errors - before.route_errors,
            disagreements: after.disagreements - before.disagreements,
        }
    };
    let none = RouteFallbacks::default();

    // In the fragment, and the route wants it: no fallback.
    assert_eq!(
        delta(&mut s, "select certain Arr from Flights choice of Dep;"),
        none
    );
    // In the fragment, but neither rewriting nor factorizing pays off.
    assert_eq!(
        delta(
            &mut s,
            "select certain SSN, Name from Census repair by key SSN;"
        ),
        RouteFallbacks {
            not_cheaper: 1,
            ..none
        }
    );
    // Aggregation is outside the fragment; the `choice of` subqueries
    // inside the statement take the route themselves.
    assert_eq!(
        delta(
            &mut s,
            "select possible A.Year, sum(A.Price) as Revenue \
             from (select * from Lineitem choice of Year) as A \
             where Quantity not in (select * from Lineitem choice of Quantity) \
             group by A.Year;"
        ),
        RouteFallbacks {
            not_in_fragment: 1,
            ..none
        }
    );
    // Without world constructs the route is not tried at all.
    assert_eq!(
        delta(
            &mut s,
            "select Year, sum(Price) as Rev from Lineitem group by Year;"
        ),
        none
    );
}
