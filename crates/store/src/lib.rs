//! # icdb-store — the ICDB storage layer
//!
//! The original system kept its metadata "in the INGRES database system.
//! ICDB uses SQL to query this data from INGRES. The component design data
//! is stored in the UNIX file system" (paper §2.3). This crate reproduces
//! both halves without external processes:
//!
//! * [`Database`] — an embedded relational store with typed tables and a
//!   small SQL subset (`CREATE TABLE`, `INSERT INTO … VALUES`, `SELECT …
//!   FROM … WHERE …`, `DELETE FROM …`), exercised by the component/tool
//!   managers exactly where the paper uses INGRES;
//! * [`FileStore`] — a named-blob store standing in for the UNIX file
//!   system: tools receive "file names" from ICDB and do their own I/O;
//! * [`wal`] — the durability primitives underneath the event-sourced
//!   persistence layer: an append-only checksummed write-ahead log,
//!   atomically-written snapshot files and generation management inside a
//!   data directory.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use icdb_store::{Database, Value};
//! let mut db = Database::new();
//! db.execute("CREATE TABLE components (name TEXT, functions TEXT, area REAL)")?;
//! db.execute("INSERT INTO components VALUES ('counter5', 'INC DEC', 37.3)")?;
//! let rows = db.query("SELECT name, area FROM components WHERE functions = 'INC DEC'")?;
//! assert_eq!(rows[0][0], Value::Text("counter5".into()));
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod corpus;
pub mod fail;
pub mod wal;

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A typed cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
    /// SQL NULL.
    Null,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl Value {
    /// Text content, if this is a text value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float content (integers coerce).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }
}

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColType {
    /// `INT`
    Int,
    /// `REAL`
    Real,
    /// `TEXT`
    Text,
}

/// One relation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// `(column name, type)` in declaration order.
    pub columns: Vec<(String, ColType)>,
    /// Row storage.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Index of a column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }
}

/// Storage error (bad SQL, schema mismatch, unknown table).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

fn serr(message: impl Into<String>) -> StoreError {
    StoreError {
        message: message.into(),
    }
}

/// The embedded relational store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The table named `name`, if present.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Executes a non-query statement (`CREATE TABLE`, `INSERT`, `DELETE`).
    /// Returns the number of affected rows.
    ///
    /// # Errors
    /// Fails on syntax errors, unknown tables/columns or arity mismatches.
    pub fn execute(&mut self, sql: &str) -> Result<usize, StoreError> {
        let toks = sql_tokens(sql)?;
        match toks.first().map(|t| t.upper()).as_deref() {
            Some("CREATE") => self.create(&toks),
            Some("INSERT") => self.insert_sql(&toks),
            Some("DELETE") => self.delete_sql(&toks),
            Some(other) => Err(serr(format!("unsupported statement `{other}`"))),
            None => Err(serr("empty statement")),
        }
    }

    /// Executes a `SELECT`, returning the projected rows.
    ///
    /// # Errors
    /// Fails on syntax errors, unknown tables or columns.
    pub fn query(&self, sql: &str) -> Result<Vec<Vec<Value>>, StoreError> {
        let toks = sql_tokens(sql)?;
        if toks.first().map(|t| t.upper()).as_deref() != Some("SELECT") {
            return Err(serr("query() only accepts SELECT"));
        }
        let mut i = 1;
        // Projection list.
        let mut cols = Vec::new();
        let star = toks.get(i).map(|t| t.text.as_str()) == Some("*");
        if star {
            i += 1;
        } else {
            loop {
                cols.push(ident(&toks, &mut i)?);
                if toks.get(i).map(|t| t.text.as_str()) == Some(",") {
                    i += 1;
                } else {
                    break;
                }
            }
        }
        expect_kw(&toks, &mut i, "FROM")?;
        let tname = ident(&toks, &mut i)?;
        let table = self
            .tables
            .get(&tname)
            .ok_or_else(|| serr(format!("no table `{tname}`")))?;
        let predicate = parse_where(&toks, &mut i, table)?;
        if i != toks.len() {
            return Err(serr(format!(
                "trailing tokens after query: `{}`",
                toks[i].text
            )));
        }
        let proj: Vec<usize> = if star {
            (0..table.columns.len()).collect()
        } else {
            cols.iter()
                .map(|c| {
                    table
                        .column_index(c)
                        .ok_or_else(|| serr(format!("no column `{c}` in `{tname}`")))
                })
                .collect::<Result<_, _>>()?
        };
        let mut out = Vec::new();
        for row in &table.rows {
            if predicate.matches(row) {
                out.push(proj.iter().map(|&c| row[c].clone()).collect());
            }
        }
        Ok(out)
    }

    /// Programmatic insert (used by the managers on hot paths).
    ///
    /// # Errors
    /// Fails on unknown table or arity/type mismatch.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), StoreError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| serr(format!("no table `{table}`")))?;
        if row.len() != t.columns.len() {
            return Err(serr(format!(
                "`{table}` expects {} values, got {}",
                t.columns.len(),
                row.len()
            )));
        }
        for (v, (cname, ty)) in row.iter().zip(&t.columns) {
            let ok = matches!(
                (v, ty),
                (Value::Int(_), ColType::Int)
                    | (Value::Real(_), ColType::Real)
                    | (Value::Int(_), ColType::Real)
                    | (Value::Text(_), ColType::Text)
                    | (Value::Null, _)
            );
            if !ok {
                return Err(serr(format!("type mismatch for column `{cname}`")));
            }
        }
        // Coerce ints destined for REAL columns.
        let coerced = row
            .into_iter()
            .zip(&t.columns)
            .map(|(v, (_, ty))| match (v, ty) {
                (Value::Int(i), ColType::Real) => Value::Real(i as f64),
                (v, _) => v,
            })
            .collect();
        t.rows.push(coerced);
        Ok(())
    }

    /// Deletes, in one pass over `table`, every row whose text `column`
    /// satisfies `doomed`; returns how many rows went. The programmatic
    /// counterpart of `DELETE … WHERE column = …` for deleting many keys
    /// at once without one table scan per key.
    ///
    /// # Errors
    /// Fails on an unknown table or column.
    pub fn delete_rows(
        &mut self,
        table: &str,
        column: &str,
        mut doomed: impl FnMut(&str) -> bool,
    ) -> Result<usize, StoreError> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| serr(format!("no table `{table}`")))?;
        let c = t
            .column_index(column)
            .ok_or_else(|| serr(format!("no column `{column}` in `{table}`")))?;
        let before = t.rows.len();
        t.rows
            .retain(|row| !row[c].as_text().is_some_and(&mut doomed));
        Ok(before - t.rows.len())
    }

    fn create(&mut self, toks: &[Tok]) -> Result<usize, StoreError> {
        let mut i = 1;
        expect_kw(toks, &mut i, "TABLE")?;
        let name = ident(toks, &mut i)?;
        if self.tables.contains_key(&name) {
            return Err(serr(format!("table `{name}` already exists")));
        }
        expect_sym(toks, &mut i, "(")?;
        let mut columns = Vec::new();
        loop {
            let cname = ident(toks, &mut i)?;
            let ty = match ident(toks, &mut i)?.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" => ColType::Int,
                "REAL" | "FLOAT" => ColType::Real,
                "TEXT" | "VARCHAR" | "STRING" => ColType::Text,
                other => return Err(serr(format!("unknown column type `{other}`"))),
            };
            columns.push((cname, ty));
            match toks.get(i).map(|t| t.text.as_str()) {
                Some(",") => i += 1,
                Some(")") => break,
                other => return Err(serr(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        self.tables.insert(
            name.clone(),
            Table {
                name,
                columns,
                rows: Vec::new(),
            },
        );
        Ok(0)
    }

    fn insert_sql(&mut self, toks: &[Tok]) -> Result<usize, StoreError> {
        let mut i = 1;
        expect_kw(toks, &mut i, "INTO")?;
        let name = ident(toks, &mut i)?;
        expect_kw(toks, &mut i, "VALUES")?;
        expect_sym(toks, &mut i, "(")?;
        let mut row = Vec::new();
        loop {
            row.push(literal(toks, &mut i)?);
            match toks.get(i).map(|t| t.text.as_str()) {
                Some(",") => i += 1,
                Some(")") => break,
                other => return Err(serr(format!("expected `,` or `)`, found {other:?}"))),
            }
        }
        self.insert(&name, row)?;
        Ok(1)
    }

    fn delete_sql(&mut self, toks: &[Tok]) -> Result<usize, StoreError> {
        let mut i = 1;
        expect_kw(toks, &mut i, "FROM")?;
        let name = ident(toks, &mut i)?;
        let table = self
            .tables
            .get(&name)
            .ok_or_else(|| serr(format!("no table `{name}`")))?;
        let predicate = parse_where(toks, &mut i, table)?;
        let table = self.tables.get_mut(&name).expect("checked above");
        let before = table.rows.len();
        table.rows.retain(|r| !predicate.matches(r));
        Ok(before - table.rows.len())
    }
}

/// Conjunction of `column = literal` tests.
struct Predicate {
    tests: Vec<(usize, Value)>,
}

impl Predicate {
    fn matches(&self, row: &[Value]) -> bool {
        self.tests.iter().all(|(c, v)| values_equal(&row[*c], v))
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Real(x), Value::Int(y)) | (Value::Int(y), Value::Real(x)) => *x == *y as f64,
        _ => a == b,
    }
}

fn parse_where(toks: &[Tok], i: &mut usize, table: &Table) -> Result<Predicate, StoreError> {
    let mut tests = Vec::new();
    if toks.get(*i).map(|t| t.upper()).as_deref() == Some("WHERE") {
        *i += 1;
        loop {
            let col = ident(toks, i)?;
            let ci = table
                .column_index(&col)
                .ok_or_else(|| serr(format!("no column `{col}` in `{}`", table.name)))?;
            expect_sym(toks, i, "=")?;
            let lit = literal(toks, i)?;
            tests.push((ci, lit));
            if toks.get(*i).map(|t| t.upper()).as_deref() == Some("AND") {
                *i += 1;
            } else {
                break;
            }
        }
    }
    Ok(Predicate { tests })
}

#[derive(Debug, Clone)]
struct Tok {
    text: String,
    is_string: bool,
}

impl Tok {
    fn upper(&self) -> String {
        self.text.to_ascii_uppercase()
    }
}

fn sql_tokens(sql: &str) -> Result<Vec<Tok>, StoreError> {
    let mut out = Vec::new();
    let mut chars = sql.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => {
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(serr("unterminated string literal")),
                    }
                }
                out.push(Tok {
                    text: s,
                    is_string: true,
                });
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' || d == '-' || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok {
                    text: s,
                    is_string: false,
                });
            }
            '(' | ')' | ',' | '=' | '*' | ';' => {
                chars.next();
                if c != ';' {
                    out.push(Tok {
                        text: c.to_string(),
                        is_string: false,
                    });
                }
            }
            other => return Err(serr(format!("unexpected character `{other}` in SQL"))),
        }
    }
    Ok(out)
}

fn ident(toks: &[Tok], i: &mut usize) -> Result<String, StoreError> {
    let t = toks
        .get(*i)
        .ok_or_else(|| serr("unexpected end of statement"))?;
    if t.is_string
        || !t
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
    {
        return Err(serr(format!("expected identifier, found `{}`", t.text)));
    }
    *i += 1;
    Ok(t.text.clone())
}

fn expect_kw(toks: &[Tok], i: &mut usize, kw: &str) -> Result<(), StoreError> {
    let t = toks
        .get(*i)
        .ok_or_else(|| serr(format!("expected `{kw}`")))?;
    if t.upper() == kw {
        *i += 1;
        Ok(())
    } else {
        Err(serr(format!("expected `{kw}`, found `{}`", t.text)))
    }
}

fn expect_sym(toks: &[Tok], i: &mut usize, sym: &str) -> Result<(), StoreError> {
    let t = toks
        .get(*i)
        .ok_or_else(|| serr(format!("expected `{sym}`")))?;
    if t.text == sym && !t.is_string {
        *i += 1;
        Ok(())
    } else {
        Err(serr(format!("expected `{sym}`, found `{}`", t.text)))
    }
}

fn literal(toks: &[Tok], i: &mut usize) -> Result<Value, StoreError> {
    let t = toks
        .get(*i)
        .ok_or_else(|| serr("expected a literal"))?
        .clone();
    *i += 1;
    if t.is_string {
        return Ok(Value::Text(t.text));
    }
    if t.upper() == "NULL" {
        return Ok(Value::Null);
    }
    if let Ok(v) = t.text.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = t.text.parse::<f64>() {
        return Ok(Value::Real(v));
    }
    Err(serr(format!("expected a literal, found `{}`", t.text)))
}

/// The design-data file store (UNIX file system stand-in): tools get file
/// names from ICDB "then perform their own I/O" (paper §2.3).
///
/// Contents are stored as shared [`Arc<str>`] blobs: writing an
/// already-shared blob (the generation cache's warm path) and reading one
/// out via [`FileStore::read_shared`] are both reference-count bumps, not
/// text copies.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FileStore {
    files: HashMap<String, Arc<str>>,
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Writes (or overwrites) a file. Accepts `String`, `&str` or a shared
    /// `Arc<str>`; passing an existing `Arc<str>` stores it without copying.
    pub fn write(&mut self, path: impl Into<String>, contents: impl Into<Arc<str>>) {
        self.files.insert(path.into(), contents.into());
    }

    /// Reads a file.
    ///
    /// # Errors
    /// Fails if the file does not exist.
    pub fn read(&self, path: &str) -> Result<&str, StoreError> {
        self.files
            .get(path)
            .map(|s| &**s)
            .ok_or_else(|| serr(format!("no file `{path}`")))
    }

    /// Reads a file as a shared blob (cheap owned handle, no text copy).
    ///
    /// # Errors
    /// Fails if the file does not exist.
    pub fn read_shared(&self, path: &str) -> Result<Arc<str>, StoreError> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| serr(format!("no file `{path}`")))
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Deletes a file, returning whether it existed.
    pub fn remove(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Deletes, in one pass, every file under `prefix` whose path remainder
    /// (the part after `prefix`) satisfies `doomed`; returns how many went.
    /// Files outside `prefix` are never offered to `doomed`.
    pub fn remove_prefix(&mut self, prefix: &str, mut doomed: impl FnMut(&str) -> bool) -> usize {
        let before = self.files.len();
        self.files
            .retain(|path, _| !path.strip_prefix(prefix).is_some_and(&mut doomed));
        before - self.files.len()
    }

    /// All paths with a given prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(String::as_str)
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of stored files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE comp (name TEXT, kind TEXT, area REAL, bits INT)")
            .unwrap();
        db.execute("INSERT INTO comp VALUES ('cnt5', 'counter', 37.3, 5)")
            .unwrap();
        db.execute("INSERT INTO comp VALUES ('add8', 'adder', 52.1, 8)")
            .unwrap();
        db.execute("INSERT INTO comp VALUES ('cnt4', 'counter', 30.0, 4)")
            .unwrap();
        db
    }

    #[test]
    fn select_with_predicates() {
        let db = db();
        let rows = db
            .query("SELECT name FROM comp WHERE kind = 'counter'")
            .unwrap();
        assert_eq!(rows.len(), 2);
        let rows = db
            .query("SELECT name, area FROM comp WHERE kind = 'counter' AND bits = 5")
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Text("cnt5".into()), Value::Real(37.3)]]
        );
    }

    #[test]
    fn select_star_and_empty_result() {
        let db = db();
        let all = db.query("SELECT * FROM comp").unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].len(), 4);
        let none = db.query("SELECT * FROM comp WHERE name = 'nope'").unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn delete_removes_matching_rows() {
        let mut db = db();
        let n = db
            .execute("DELETE FROM comp WHERE kind = 'counter'")
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.query("SELECT * FROM comp").unwrap().len(), 1);
    }

    #[test]
    fn type_checking_on_insert() {
        let mut db = db();
        assert!(db
            .execute("INSERT INTO comp VALUES (5, 'adder', 1.0, 1)")
            .is_err());
        assert!(db
            .execute("INSERT INTO comp VALUES ('x', 'y', 1.0)")
            .is_err());
        // INT coerces into REAL column.
        db.execute("INSERT INTO comp VALUES ('z', 'adder', 10, 1)")
            .unwrap();
        let rows = db.query("SELECT area FROM comp WHERE name = 'z'").unwrap();
        assert_eq!(rows[0][0], Value::Real(10.0));
    }

    #[test]
    fn errors_are_descriptive() {
        let mut db = db();
        let e = db.execute("CREATE TABLE comp (x INT)").unwrap_err();
        assert!(e.message.contains("already exists"));
        let e = db.query("SELECT nope FROM comp").unwrap_err();
        assert!(e.message.contains("nope"));
        let e = db.query("SELECT name FROM missing").unwrap_err();
        assert!(e.message.contains("missing"));
    }

    #[test]
    fn quoted_strings_with_escapes() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (s TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES ('it''s fine')").unwrap();
        let rows = db.query("SELECT s FROM t").unwrap();
        assert_eq!(rows[0][0].as_text(), Some("it's fine"));
    }

    #[test]
    fn file_store_roundtrip() {
        let mut fs = FileStore::new();
        assert!(fs.is_empty());
        fs.write("designs/cnt5.iif", "NAME: COUNTER; ...");
        fs.write("designs/cnt5.cif", "DS 1 1 1; DF; E");
        assert!(fs.exists("designs/cnt5.iif"));
        assert_eq!(fs.list("designs/").len(), 2);
        assert_eq!(fs.read("designs/cnt5.cif").unwrap(), "DS 1 1 1; DF; E");
        assert!(fs.remove("designs/cnt5.cif"));
        assert!(!fs.exists("designs/cnt5.cif"));
        assert!(fs.read("designs/cnt5.cif").is_err());
    }

    #[test]
    fn file_store_remove_then_list_and_overwrite() {
        let mut fs = FileStore::new();
        fs.write("a/x", "one");
        fs.write("a/y", "two");
        fs.write("b/z", "three");
        // Overwrite replaces content without duplicating the path.
        fs.write("a/x", "one-v2");
        assert_eq!(fs.len(), 3);
        assert_eq!(fs.read("a/x").unwrap(), "one-v2");
        // Remove-then-list: the removed path disappears, the rest stay
        // sorted; removing again reports absence.
        assert!(fs.remove("a/x"));
        assert!(!fs.remove("a/x"));
        assert_eq!(fs.list("a/"), vec!["a/y"]);
        assert_eq!(fs.list(""), vec!["a/y", "b/z"]);
        // Re-writing a removed path resurrects it.
        fs.write("a/x", "back");
        assert_eq!(fs.list("a/"), vec!["a/x", "a/y"]);
        assert_eq!(fs.read("a/x").unwrap(), "back");
    }

    #[test]
    fn delete_rows_matches_one_text_column_in_one_pass() {
        let mut db = db();
        let n = db
            .delete_rows("comp", "name", |name| name.starts_with("cnt"))
            .unwrap();
        assert_eq!(n, 2);
        let left = db.query("SELECT name FROM comp").unwrap();
        assert_eq!(left, vec![vec![Value::Text("add8".into())]]);
        assert!(db.delete_rows("missing", "name", |_| true).is_err());
        assert!(db.delete_rows("comp", "nope", |_| true).is_err());
        // A non-text column never matches.
        assert_eq!(db.delete_rows("comp", "bits", |_| true).unwrap(), 0);
    }

    #[test]
    fn remove_prefix_offers_only_paths_under_the_prefix() {
        let mut fs = FileStore::new();
        fs.write("s1/instances/a.cif", "x");
        fs.write("s1/instances/b.cif", "x");
        fs.write("s10/instances/a.cif", "x");
        fs.write("instances/a.cif", "x");
        let mut offered = Vec::new();
        let n = fs.remove_prefix("s1/instances/", |rest| {
            offered.push(rest.to_string());
            rest.starts_with('a')
        });
        assert_eq!(n, 1);
        offered.sort();
        assert_eq!(offered, vec!["a.cif", "b.cif"]);
        assert_eq!(
            fs.list(""),
            vec![
                "instances/a.cif",
                "s1/instances/b.cif",
                "s10/instances/a.cif"
            ]
        );
    }

    /// Every [`Value`] variant must survive a serde snapshot round trip
    /// bit-exactly — including awkward reals and escaped text.
    #[test]
    fn value_snapshot_round_trip_all_variants() {
        let values = vec![
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Real(0.0),
            Value::Real(-0.0),
            Value::Real(37.3),
            Value::Real(1e300),
            Value::Real(f64::MIN_POSITIVE),
            Value::Text(String::new()),
            Value::Text("it's 'quoted'\nand\ttabbed\\".into()),
            Value::Text("ünïcødé — 成分".into()),
            Value::Null,
        ];
        let bytes = serde::to_bytes(&values);
        let back: Vec<Value> = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back, values);
        // -0.0 == 0.0 under PartialEq; check the sign bit survived too.
        let Value::Real(neg_zero) = &back[4] else {
            panic!("variant order changed");
        };
        assert!(neg_zero.is_sign_negative());
    }

    /// The full relational store and file store round-trip through serde
    /// (the basis of the persistence layer's snapshots), preserving row
    /// order and blob contents.
    #[test]
    fn database_and_file_store_snapshot_round_trip() {
        let db = db();
        let bytes = serde::to_bytes(&db);
        let back: Database = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back.table_names(), db.table_names());
        let t = back.table("comp").unwrap();
        assert_eq!(t.columns, db.table("comp").unwrap().columns);
        assert_eq!(t.rows, db.table("comp").unwrap().rows);
        assert_eq!(
            back.query("SELECT name FROM comp WHERE kind = 'counter'")
                .unwrap(),
            db.query("SELECT name FROM comp WHERE kind = 'counter'")
                .unwrap()
        );

        let mut fs = FileStore::new();
        fs.write("instances/c$1.cif", "DS 1 1 1; DF; E");
        fs.write("instances/c$1.delay", "CW 29.0\n");
        let bytes = serde::to_bytes(&fs);
        let back: FileStore = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.read("instances/c$1.cif").unwrap(), "DS 1 1 1; DF; E");
        assert_eq!(back.list("instances/"), fs.list("instances/"));
    }

    #[test]
    fn programmatic_insert_path() {
        let mut db = db();
        db.insert(
            "comp",
            vec![
                Value::Text("mux2".into()),
                Value::Text("mux".into()),
                Value::Real(12.0),
                Value::Int(2),
            ],
        )
        .unwrap();
        assert_eq!(db.query("SELECT * FROM comp").unwrap().len(), 4);
        assert!(db.insert("missing", vec![]).is_err());
    }
}
