//! Tiny argument helpers shared by the `serve_defense`, `remote_client`,
//! `export_model` and `shard_router` binaries, so their command lines cannot
//! drift apart.

/// Parses positional argument `index` of `args`, falling back to `default`
/// when the argument is absent or unparsable.
///
/// # Examples
///
/// ```
/// use ensembler_serve::cli::positional;
///
/// let args: Vec<String> = vec!["127.0.0.1:7878".into(), "4".into()];
/// assert_eq!(positional(&args, 1, 2usize), 4);
/// assert_eq!(positional(&args, 2, 17u64), 17); // absent → default
/// assert_eq!(positional(&args, 0, 9usize), 9); // unparsable → default
/// ```
pub fn positional<T: std::str::FromStr>(args: &[String], index: usize, default: T) -> T {
    args.get(index)
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(default)
}
