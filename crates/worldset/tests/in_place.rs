//! World-level operations run in place: `map_worlds`, `flat_map_worlds`
//! and `extend_with` visit every world on the calling thread.

use relalg::{attrs, Relation, Result};
use worldset::{World, WorldSet};

#[test]
fn world_closures_run_on_the_calling_thread() {
    let worlds = ["BCN", "FRA", "LHR", "PAR", "PHL", "ZRH"]
        .map(|dep| World::new(vec![Relation::table(&["Dep", "Arr"], &[&[dep, "ATL"]])]));
    let split = WorldSet::from_worlds(vec!["Flights".into()], worlds).unwrap();
    assert_eq!(split.len(), 6);

    // The closures mutate captured state, so this only compiles while the
    // API takes `FnMut` — which it can because no world leaves the caller's
    // thread.
    let caller = std::thread::current().id();
    let mut seen = Vec::new();
    let mapped = split.map_worlds(|w| -> Result<World> {
        seen.push(std::thread::current().id());
        Ok(w.clone())
    });
    let flat = split.flat_map_worlds(|w| -> Result<Vec<World>> {
        seen.push(std::thread::current().id());
        Ok(vec![w.clone(), w.clone()])
    });
    let extended = split.extend_with("Deps", |w| {
        seen.push(std::thread::current().id());
        w.last().project(&attrs(&["Dep"]))
    });

    assert_eq!(mapped.unwrap(), split);
    assert_eq!(flat.unwrap(), split);
    assert_eq!(extended.unwrap().drop_last(), split);
    assert_eq!(seen, vec![caller; 3 * split.len()]);
}
