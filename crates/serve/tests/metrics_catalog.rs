//! The stable-name contract: the metric families the code registers are
//! exactly the backticked `dangoron_*` first cells of the tables in
//! `docs/metrics.md`. Renaming a family on one side only fails here.

use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn registered_families_match_the_docs_catalog() {
    let coord = Arc::new(obs::Registry::new());
    dist::metrics::CoordMetrics::new(&coord);
    let serve = serve::ServeMetrics::new();
    serve.session("s");
    let code: BTreeSet<String> = [obs::stages::global(), coord, serve.registry()]
        .iter()
        .flat_map(|r| r.snapshot())
        .map(|s| s.name)
        .collect();

    let docs: BTreeSet<String> = include_str!("../../../docs/metrics.md")
        .lines()
        .filter_map(|l| l.strip_prefix('|')?.split('|').next())
        .filter_map(|cell| cell.trim().strip_prefix('`')?.strip_suffix('`'))
        .map(|name| name.split('{').next().unwrap_or(name).to_string())
        .filter(|name| name.starts_with("dangoron_"))
        .collect();

    assert_eq!(
        code,
        docs,
        "registered but undocumented: {:?}; documented but unregistered: {:?}",
        code.difference(&docs).collect::<Vec<_>>(),
        docs.difference(&code).collect::<Vec<_>>()
    );
}
