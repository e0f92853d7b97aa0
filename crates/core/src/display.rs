//! Plan-tree rendering in the style of the paper's Figures 8 and 9.

use crate::Query;

/// Render a query as an indented operator tree. Selections directly over
/// products print as joins `⋈[φ]`, matching the plans of Figures 8(b)/9(b).
pub fn render_tree(q: &Query) -> String {
    let mut out = String::new();
    render(q, 0, &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn attr_list(attrs: &[relalg::Attr]) -> String {
    attrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn render(q: &Query, depth: usize, out: &mut String) {
    indent(depth, out);
    match q {
        Query::Rel(name) => {
            out.push_str(name);
            out.push('\n');
        }
        Query::Select(p, inner) => {
            // Join sugar: σ_φ(a × b) renders as ⋈_φ.
            if let Query::Product(a, b) = inner.as_ref() {
                out.push_str(&format!("⋈[{p}]\n"));
                render(a, depth + 1, out);
                render(b, depth + 1, out);
            } else {
                out.push_str(&format!("σ[{p}]\n"));
                render(inner, depth + 1, out);
            }
        }
        Query::Project(attrs, inner) => {
            out.push_str(&format!("π{{{}}}\n", attr_list(attrs)));
            render(inner, depth + 1, out);
        }
        Query::Rename(map, inner) => {
            let m = map
                .iter()
                .map(|(s, d)| format!("{s}→{d}"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!("δ{{{m}}}\n"));
            render(inner, depth + 1, out);
        }
        Query::Product(a, b) => {
            out.push_str("×\n");
            render(a, depth + 1, out);
            render(b, depth + 1, out);
        }
        Query::Union(a, b) => {
            out.push_str("∪\n");
            render(a, depth + 1, out);
            render(b, depth + 1, out);
        }
        Query::Intersect(a, b) => {
            out.push_str("∩\n");
            render(a, depth + 1, out);
            render(b, depth + 1, out);
        }
        Query::Difference(a, b) => {
            out.push_str("−\n");
            render(a, depth + 1, out);
            render(b, depth + 1, out);
        }
        Query::Choice(attrs, inner) => {
            out.push_str(&format!("χ{{{}}}\n", attr_list(attrs)));
            render(inner, depth + 1, out);
        }
        Query::Poss(inner) => {
            out.push_str("poss\n");
            render(inner, depth + 1, out);
        }
        Query::Cert(inner) => {
            out.push_str("cert\n");
            render(inner, depth + 1, out);
        }
        Query::PossGroup { group, proj, input } => {
            out.push_str(&format!("pγ{{{}|{}}}\n", attr_list(proj), attr_list(group)));
            render(input, depth + 1, out);
        }
        Query::CertGroup { group, proj, input } => {
            out.push_str(&format!("cγ{{{}|{}}}\n", attr_list(proj), attr_list(group)));
            render(input, depth + 1, out);
        }
        Query::RepairKey(attrs, inner) => {
            out.push_str(&format!("repair-key{{{}}}\n", attr_list(attrs)));
            render(inner, depth + 1, out);
        }
        Query::Aggregate { group, aggs, input } => {
            let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
            out.push_str(&format!("γ{{{};{}}}\n", attr_list(group), aggs.join(",")));
            render(input, depth + 1, out);
        }
        Query::SemiJoin {
            on,
            anti,
            left,
            right,
        } => {
            let on: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
            let op = if *anti { "▷" } else { "⋉" };
            out.push_str(&format!("{op}{{{}}}\n", on.join(",")));
            render(left, depth + 1, out);
            render(right, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{attrs, Pred};

    #[test]
    fn figure_8b_tree_shape() {
        // q1′ = cert(π_City(χ_Dep(HFlights) ⋈_{Arr=City} Hotels))
        let q = Query::rel("HFlights")
            .choice(attrs(&["Dep"]))
            .product(Query::rel("Hotels"))
            .select(Pred::eq_attr("Arr", "City"))
            .project(attrs(&["City"]))
            .cert();
        let tree = render_tree(&q);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "cert");
        assert_eq!(lines[1].trim(), "π{City}");
        assert!(lines[2].trim().starts_with("⋈[Arr=City]"));
        assert_eq!(lines[3].trim(), "χ{Dep}");
        assert_eq!(lines[4].trim(), "HFlights");
        assert_eq!(lines[5].trim(), "Hotels");
    }

    #[test]
    fn renders_all_operators() {
        let q = Query::rel("R")
            .rename(vec![("A".into(), "X".into())])
            .union(Query::rel("R").rename(vec![("A".into(), "X".into())]))
            .intersect(Query::rel("S"))
            .difference(Query::rel("S"))
            .repair_by_key(attrs(&["X"]))
            .poss_group(attrs(&["X"]), attrs(&["X"]))
            .cert_group(attrs(&["X"]), attrs(&["X"]))
            .poss();
        let tree = render_tree(&q);
        for symbol in ["poss", "cγ", "pγ", "repair-key", "−", "∩", "∪", "δ"] {
            assert!(tree.contains(symbol), "missing {symbol} in\n{tree}");
        }
    }
}
