//! Why a select that tried the algebra route ran on the interpreter
//! instead, counted per reason (`isql::route_fallbacks`).
//!
//! The counters are process-wide, so this file holds one test: its binary
//! runs no other statement concurrently.

use isql::server::render_outcome;
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
            not_translatable: after.not_translatable - before.not_translatable,
            not_in_fragment: after.not_in_fragment - before.not_in_fragment,
            not_cheaper: after.not_cheaper - before.not_cheaper,
            route_errors: after.route_errors - before.route_errors,
            disagreements: after.disagreements - before.disagreements,
        }
    };
    let none = RouteFallbacks::default();

    // A `1↦1` statement over one world: the relational route runs it.
    assert_eq!(
        delta(&mut s, "select certain Arr from Flights choice of Dep;"),
        none
    );
    // A key-local repair: the relational route runs it too.
    assert_eq!(
        delta(
            &mut s,
            "select certain SSN, Name from Census repair by key SSN;"
        ),
        none
    );
    // `1↦1`, but the repair is over a `choice of`: outside the key-local
    // fragment there is no relational translation (Proposition 4.2), and on
    // the algebra route neither rewriting nor factorizing pays off.
    assert_eq!(
        delta(
            &mut s,
            "select certain SSN, Name from Census choice of POW repair by key SSN;"
        ),
        RouteFallbacks {
            not_translatable: 1,
            not_cheaper: 1,
            ..none
        }
    );
    // B16's `whatif`: `group by` and `not in` compile, so the paper's
    // what-if query runs as its relational plan.
    assert_eq!(
        delta(
            &mut s,
            "select possible A.Year, sum(A.Price) as Revenue \
             from (select * from Lineitem choice of Year) as A \
             where Quantity not in (select * from Lineitem choice of Quantity) \
             group by A.Year;"
        ),
        none
    );
    // Still outside the fragment: a correlated `in`, an arithmetic select
    // item, and an aggregate without `group by`, which answers one row over
    // an empty input where `γ` answers none. Each renders as it does with
    // the algebra routes off.
    for sql in [
        "select possible A.Year from (select * from Lineitem choice of Year) as A \
         where A.Quantity in (select Quantity from Lineitem L where L.Year = A.Year);",
        "select possible Year, Price + 1 as P from Lineitem choice of Year;",
        "select possible sum(Price) as S from Lineitem choice of Year;",
    ] {
        let mut plain = s.clone();
        plain.execute("set local rewrite = off;").unwrap();
        let reference = plain.execute(sql).unwrap();
        let before = route_fallbacks();
        let routed = s.execute(sql).unwrap();
        let after = route_fallbacks();
        assert_eq!(
            after.not_in_fragment + after.not_translatable,
            before.not_in_fragment + before.not_translatable + 1,
            "{sql}"
        );
        assert_eq!(
            render_outcome(&routed[0], s.world_set().len()),
            render_outcome(&reference[0], plain.world_set().len()),
            "{sql}"
        );
    }
    // A select without world constructs over one world runs as its
    // relational plan.
    assert_eq!(
        delta(
            &mut s,
            "select Year, sum(Price) as Rev from Lineitem group by Year;"
        ),
        none
    );
    // Outside the fragment it is counted once and renders as it does with
    // the algebra routes off.
    let sql = "select Year, Price + 1 as P from Lineitem;";
    let mut plain = s.clone();
    plain.execute("set local rewrite = off;").unwrap();
    let reference = plain.execute(sql).unwrap();
    let before = route_fallbacks();
    let routed = s.execute(sql).unwrap();
    let after = route_fallbacks();
    assert_eq!(after.not_in_fragment, before.not_in_fragment + 1);
    assert_eq!(after.not_translatable, before.not_translatable);
    assert_eq!(
        render_outcome(&routed[0], s.world_set().len()),
        render_outcome(&reference[0], plain.world_set().len())
    );
    // Over two worlds it stays on the interpreter and is not counted.
    let mut two = s.clone();
    two.register("Coin", relalg::Relation::table(&["Side"], &[&[0i64], &[1]]))
        .unwrap();
    two.execute("create view Toss as select * from Coin choice of Side;")
        .unwrap();
    assert_eq!(two.world_set().len(), 2);
    assert_eq!(
        delta(
            &mut two,
            "select Year, sum(Price) as Rev from Lineitem group by Year;"
        ),
        none
    );
    assert_eq!(delta(&mut two, sql), none);

    // A declined relational route is counted once and changes no answer:
    // the statement renders as it does with the algebra routes off.
    let sql = "select certain SSN from Census choice of POW repair by key SSN;";
    let mut plain = s.clone();
    plain.execute("set local rewrite = off;").unwrap();
    let reference = plain.execute(sql).unwrap();
    let before = route_fallbacks().not_translatable;
    let routed = s.execute(sql).unwrap();
    assert_eq!(route_fallbacks().not_translatable, before + 1);
    assert_eq!(
        render_outcome(&routed[0], s.world_set().len()),
        render_outcome(&reference[0], plain.world_set().len())
    );
}
