//! Recursive-descent parser for parameterized IIF (grammar of Appendix A.2).

use crate::ast::*;
use crate::token::{lex, Spanned, Token};
use std::fmt;

/// Parse error with source position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<crate::token::LexError> for ParseError {
    fn from(e: crate::token::LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses IIF source text into a [`Module`].
///
/// # Errors
/// Returns a [`ParseError`] describing the first syntax problem found.
///
/// ```
/// let src = "
/// NAME: AND;
/// PARAMETER: size;
/// INORDER: I0[size];
/// OUTORDER: O;
/// VARIABLE: i;
/// {
///   #for(i=0; i<size; i++)
///     O *= I0[i];
/// }";
/// let m = icdb_iif::parse(src).unwrap();
/// assert_eq!(m.name, "AND");
/// assert_eq!(m.parameters, vec!["size".to_string()]);
/// ```
pub fn parse(src: &str) -> Result<Module, ParseError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .module()
}

/// Deepest nesting the parser accepts: blocks, sub-expressions and the
/// operators of one chain each count a level. Past it the source is
/// rejected, rather than recursing (or building a tree for the later
/// passes to recurse over) deeper than a thread's stack can hold.
const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Enters one more nesting level, failing past [`MAX_NESTING`].
    fn deepen(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level down, restoring the level afterwards
    /// whether `f` succeeds or fails (the parser backtracks on failure).
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let outer = self.depth;
        self.deepen()?;
        let result = f(self);
        self.depth = outer;
        result
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn here(&self) -> (u32, u32) {
        let s = &self.tokens[self.pos];
        (s.line, s.col)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError {
            message: msg.into(),
            line,
            col,
        })
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {}", self.peek()))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected {what}, found {other}")),
        }
    }

    /// `:` or `=` after a declaration keyword (both appear in the paper).
    fn decl_separator(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Token::Colon | Token::Assign => {
                self.bump();
                Ok(())
            }
            other => self.err(format!(
                "expected `:` after declaration keyword, found {other}"
            )),
        }
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        let mut m = Module {
            name: String::new(),
            functions: Vec::new(),
            parameters: Vec::new(),
            variables: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            internals: Vec::new(),
            subfunctions: Vec::new(),
            subcomponents: Vec::new(),
            body: Vec::new(),
        };
        loop {
            match self.peek().clone() {
                Token::Name => {
                    self.bump();
                    self.decl_separator()?;
                    m.name = self.expect_ident("design name")?;
                    self.opt_semicolon();
                }
                Token::Functions => {
                    self.bump();
                    self.decl_separator()?;
                    m.functions = self.ident_list()?;
                }
                Token::Parameter => {
                    self.bump();
                    self.decl_separator()?;
                    m.parameters = self.ident_list()?;
                }
                Token::Variable => {
                    self.bump();
                    self.decl_separator()?;
                    m.variables = self.ident_list()?;
                }
                Token::Inorder => {
                    self.bump();
                    self.decl_separator()?;
                    m.inputs = self.signal_list()?;
                }
                Token::Outorder => {
                    self.bump();
                    self.decl_separator()?;
                    m.outputs = self.signal_list()?;
                }
                Token::PiifVariable => {
                    self.bump();
                    self.decl_separator()?;
                    m.internals = self.signal_list()?;
                }
                Token::Subfunction => {
                    self.bump();
                    self.decl_separator()?;
                    m.subfunctions = self.ident_list()?;
                }
                Token::Subcomponent => {
                    self.bump();
                    self.decl_separator()?;
                    m.subcomponents = self.ident_list()?;
                }
                Token::LBrace => break,
                Token::Eof => return self.err("expected design body `{ … }`"),
                other => return self.err(format!("unexpected token in declarations: {other}")),
            }
        }
        if m.name.is_empty() {
            return self.err("missing NAME declaration");
        }
        match self.stmt()? {
            Stmt::Block(stmts) => m.body = stmts,
            single => m.body = vec![single],
        }
        if self.peek() != &Token::Eof {
            return self.err(format!("trailing input after design body: {}", self.peek()));
        }
        Ok(m)
    }

    fn opt_semicolon(&mut self) {
        if self.peek() == &Token::Semicolon {
            self.bump();
        }
    }

    /// Comma- or whitespace-separated identifiers terminated by `;`.
    fn ident_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Ident(s) => {
                    self.bump();
                    out.push(s);
                    if self.peek() == &Token::Comma {
                        self.bump();
                    }
                }
                Token::Semicolon => {
                    self.bump();
                    return Ok(out);
                }
                other => return self.err(format!("expected identifier or `;`, found {other}")),
            }
        }
    }

    /// Signal declarations with optional `[dims]`, terminated by `;`.
    fn signal_list(&mut self) -> Result<Vec<SignalDecl>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Ident(name) => {
                    self.bump();
                    let mut dims = Vec::new();
                    while self.peek() == &Token::LBracket {
                        self.bump();
                        dims.push(self.expr_bp(0)?);
                        self.expect(&Token::RBracket, "`]`")?;
                    }
                    out.push(SignalDecl { name, dims });
                    if self.peek() == &Token::Comma {
                        self.bump();
                    }
                }
                Token::Semicolon => {
                    self.bump();
                    return Ok(out);
                }
                other => {
                    return self.err(format!("expected signal declaration or `;`, found {other}"))
                }
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_unbounded)
    }

    fn stmt_unbounded(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Token::LBrace => {
                self.bump();
                let mut stmts = Vec::new();
                while self.peek() != &Token::RBrace {
                    if self.peek() == &Token::Eof {
                        return self.err("unterminated block: missing `}`");
                    }
                    stmts.push(self.stmt()?);
                }
                self.bump();
                Ok(Stmt::Block(stmts))
            }
            Token::HashIf => {
                self.bump();
                self.expect(&Token::LParen, "`(` after #if")?;
                let cond = self.assign_expr()?;
                self.expect(&Token::RParen, "`)` closing #if condition")?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch = if self.peek() == &Token::HashElse {
                    self.bump();
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Token::HashFor => {
                self.bump();
                self.expect(&Token::LParen, "`(` after #for")?;
                let init = self.assign_expr()?;
                self.expect(&Token::Semicolon, "`;` after for-init")?;
                let cond = self.assign_expr()?;
                self.expect(&Token::Semicolon, "`;` after for-condition")?;
                let step = self.assign_expr()?;
                self.expect(&Token::RParen, "`)` closing #for header")?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Token::HashBreak => {
                self.bump();
                self.opt_semicolon();
                Ok(Stmt::Break)
            }
            Token::HashContinue => {
                self.bump();
                self.opt_semicolon();
                Ok(Stmt::Continue)
            }
            Token::HashCLine => {
                self.bump();
                let inner = self.stmt()?;
                Ok(Stmt::CLine(Box::new(inner)))
            }
            Token::HashCall(name) => {
                self.bump();
                self.expect(&Token::LParen, "`(` after subfunction name")?;
                let mut args = Vec::new();
                if self.peek() != &Token::RParen {
                    loop {
                        args.push(self.expr_bp(0)?);
                        if self.peek() == &Token::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen, "`)` closing subfunction call")?;
                self.opt_semicolon();
                Ok(Stmt::Call { name, args })
            }
            _ => {
                // Expression statement: either an equation (assignment) or a
                // bare C expression (under #c_line).
                let e = self.assign_expr()?;
                self.expect(&Token::Semicolon, "`;` after statement")?;
                Ok(match e {
                    Expr::Assign(lhs, rhs) => match decode_aggregate(&lhs.name) {
                        Some((op, real)) => Stmt::Equation {
                            lhs: LValue {
                                name: real.to_string(),
                                indices: lhs.indices,
                            },
                            op,
                            rhs: *rhs,
                        },
                        None => Stmt::Equation {
                            lhs,
                            op: AssignOp::Assign,
                            rhs: *rhs,
                        },
                    },
                    other => Stmt::Expr(other),
                })
            }
        }
    }

    /// Parses an assignment-level expression. Plain `=` yields
    /// [`Expr::Assign`]; aggregate operators are promoted to equations by
    /// the caller.
    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::assign_expr_unbounded)
    }

    fn assign_expr_unbounded(&mut self) -> Result<Expr, ParseError> {
        // Look ahead: lvalue followed by an assignment operator?
        let start = self.pos;
        if let Token::Ident(name) = self.peek().clone() {
            self.bump();
            let mut indices = Vec::new();
            let mut ok = true;
            while self.peek() == &Token::LBracket {
                self.bump();
                match self.expr_bp(0) {
                    Ok(e) => indices.push(e),
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
                if self.peek() == &Token::RBracket {
                    self.bump();
                } else {
                    ok = false;
                    break;
                }
            }
            if ok {
                let lv = LValue { name, indices };
                match self.peek().clone() {
                    Token::Assign => {
                        self.bump();
                        let rhs = self.assign_expr()?;
                        return Ok(Expr::Assign(lv, Box::new(rhs)));
                    }
                    Token::PlusAssign
                    | Token::StarAssign
                    | Token::XorAssign
                    | Token::XnorAssign => {
                        // Aggregate assignments are only valid as statements;
                        // encode via a marker and let stmt() reconstruct.
                        let op = match self.bump() {
                            Token::PlusAssign => AssignOp::OrAggregate,
                            Token::StarAssign => AssignOp::AndAggregate,
                            Token::XorAssign => AssignOp::XorAggregate,
                            Token::XnorAssign => AssignOp::XnorAggregate,
                            _ => unreachable!(),
                        };
                        let rhs = self.expr_bp(0)?;
                        return Ok(Expr::Assign(
                            LValue {
                                name: aggregate_marker(op, &lv.name),
                                indices: lv.indices,
                            },
                            Box::new(rhs),
                        ));
                    }
                    _ => {
                        self.pos = start;
                    }
                }
            } else {
                self.pos = start;
            }
        }
        self.expr_bp(0)
    }

    /// Pratt expression parser. Precedence follows the Appendix A.2 yacc
    /// declarations (lowest first): `||`, `&&`, `== !=`, `<= >= < >`,
    /// `+ - ~d ~t ~w @ ~a`, `* / %`, `(+) (.)`, `**`, unary.
    fn expr_bp(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        self.nested(|p| p.expr_bp_unbounded(min_bp))
    }

    fn expr_bp_unbounded(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let (l_bp, r_bp, _tok) = match self.peek() {
                Token::LOr => (10, 11, "||"),
                Token::LAnd => (12, 13, "&&"),
                Token::Eq | Token::Neq => (14, 15, "=="),
                Token::Leq | Token::Geq | Token::Lt | Token::Gt => (16, 17, "<"),
                Token::Plus
                | Token::Minus
                | Token::TildeD
                | Token::TildeT
                | Token::TildeW
                | Token::At
                | Token::TildeA => (18, 19, "+"),
                Token::Star | Token::Slash | Token::Percent => (20, 21, "*"),
                Token::Xor | Token::Xnor => (22, 23, "(+)"),
                Token::StarStar => (25, 24, "**"),
                _ => break,
            };
            if l_bp < min_bp {
                break;
            }
            // Each operator of a chain nests the tree built so far.
            self.deepen()?;
            let op_tok = self.bump();
            lhs = match op_tok {
                Token::TildeA => {
                    let entries = self.async_list()?;
                    Expr::Async(Box::new(lhs), entries)
                }
                Token::At => {
                    let rhs = self.expr_bp(r_bp)?;
                    Expr::At(Box::new(lhs), Box::new(rhs))
                }
                Token::TildeD => {
                    let rhs = match self.peek().clone() {
                        Token::Float(v) => {
                            self.bump();
                            Expr::Float(v)
                        }
                        _ => self.expr_bp(r_bp)?,
                    };
                    Expr::Binary(BinOp::Delay, Box::new(lhs), Box::new(rhs))
                }
                other => {
                    let op = match other {
                        Token::LOr => BinOp::LOr,
                        Token::LAnd => BinOp::LAnd,
                        Token::Eq => BinOp::Eq,
                        Token::Neq => BinOp::Neq,
                        Token::Leq => BinOp::Leq,
                        Token::Geq => BinOp::Geq,
                        Token::Lt => BinOp::Lt,
                        Token::Gt => BinOp::Gt,
                        Token::Plus => BinOp::Or,
                        Token::Minus => BinOp::Sub,
                        Token::TildeT => BinOp::Tristate,
                        Token::TildeW => BinOp::WireOr,
                        Token::Star => BinOp::And,
                        Token::Slash => BinOp::Div,
                        Token::Percent => BinOp::Mod,
                        Token::Xor => BinOp::Xor,
                        Token::Xnor => BinOp::Xnor,
                        Token::StarStar => BinOp::Pow,
                        _ => unreachable!(),
                    };
                    let rhs = self.expr_bp(r_bp)?;
                    Expr::Binary(op, Box::new(lhs), Box::new(rhs))
                }
            };
        }
        Ok(lhs)
    }

    /// `~a ( value/cond {, value/cond} )`
    fn async_list(&mut self) -> Result<Vec<AsyncEntry>, ParseError> {
        self.expect(&Token::LParen, "`(` after ~a")?;
        let mut entries = Vec::new();
        loop {
            // value is parsed above `/` precedence: a unary expression.
            let value = self.unary()?;
            self.expect(&Token::Slash, "`/` between async value and condition")?;
            let cond = self.expr_bp(20)?; // bind tighter than `,`; stop at , or )
            entries.push(AsyncEntry { value, cond });
            match self.bump() {
                Token::Comma => continue,
                Token::RParen => break,
                other => {
                    return self.err(format!("expected `,` or `)` in async list, found {other}"))
                }
            }
        }
        Ok(entries)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary_unbounded)
    }

    fn unary_unbounded(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Bang => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Not, Box::new(self.unary()?)))
            }
            Token::Minus => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Neg, Box::new(self.unary()?)))
            }
            Token::TildeB => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Buf, Box::new(self.unary()?)))
            }
            Token::TildeS => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Schmitt, Box::new(self.unary()?)))
            }
            Token::TildeR => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Rise, Box::new(self.unary()?)))
            }
            Token::TildeF => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Fall, Box::new(self.unary()?)))
            }
            Token::TildeH => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::High, Box::new(self.unary()?)))
            }
            Token::TildeL => {
                self.bump();
                Ok(Expr::Unary(UnaryOp::Low, Box::new(self.unary()?)))
            }
            Token::PlusPlus | Token::MinusMinus => {
                let inc = self.bump() == Token::PlusPlus;
                let lv = self.lvalue()?;
                Ok(Expr::IncDec { lv, inc, pre: true })
            }
            _ => self.postfix(),
        }
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let name = self.expect_ident("lvalue")?;
        let mut indices = Vec::new();
        while self.peek() == &Token::LBracket {
            self.bump();
            indices.push(self.expr_bp(0)?);
            self.expect(&Token::RBracket, "`]`")?;
        }
        Ok(LValue { name, indices })
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while let Token::PlusPlus | Token::MinusMinus = self.peek() {
            if let Expr::Ident(_) | Expr::Indexed(..) = e {
                let inc = self.bump() == Token::PlusPlus;
                let lv = match e {
                    Expr::Ident(n) => LValue {
                        name: n,
                        indices: vec![],
                    },
                    Expr::Indexed(n, idx) => LValue {
                        name: n,
                        indices: idx,
                    },
                    _ => unreachable!(),
                };
                e = Expr::IncDec {
                    lv,
                    inc,
                    pre: false,
                };
            } else {
                return self.err("`++`/`--` requires a variable");
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Token::Float(v) => {
                self.bump();
                Ok(Expr::Float(v))
            }
            Token::LParen => {
                self.bump();
                let e = self.expr_bp(0)?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Token::Ident(name) => {
                self.bump();
                let mut indices = Vec::new();
                while self.peek() == &Token::LBracket {
                    self.bump();
                    indices.push(self.expr_bp(0)?);
                    self.expect(&Token::RBracket, "`]`")?;
                }
                if indices.is_empty() {
                    Ok(Expr::Ident(name))
                } else {
                    Ok(Expr::Indexed(name, indices))
                }
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

const AGG_PREFIX: &str = "\u{1}agg\u{1}";

/// Encodes an aggregate-assignment operator into the lvalue name so that
/// `assign_expr` (which must return an [`Expr`]) can carry it back to the
/// statement level without a separate AST node.
fn aggregate_marker(op: AssignOp, name: &str) -> String {
    let tag = match op {
        AssignOp::OrAggregate => 'o',
        AssignOp::AndAggregate => 'a',
        AssignOp::XorAggregate => 'x',
        AssignOp::XnorAggregate => 'n',
        AssignOp::Assign => unreachable!(),
    };
    format!("{AGG_PREFIX}{tag}{name}")
}

/// Decodes the marker inserted by [`aggregate_marker`].
pub(crate) fn decode_aggregate(name: &str) -> Option<(AssignOp, &str)> {
    let rest = name.strip_prefix(AGG_PREFIX)?;
    let mut chars = rest.chars();
    let op = match chars.next()? {
        'o' => AssignOp::OrAggregate,
        'a' => AssignOp::AndAggregate,
        'x' => AssignOp::XorAggregate,
        'n' => AssignOp::XnorAggregate,
        _ => return None,
    };
    Some((op, chars.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_adder() {
        let src = r#"
NAME: ADDER;
PARAMETER: size;
INORDER: I0[size], I1[size], Cin;
OUTORDER: O[size], Cout;
PIIFVARIABLE: C[size+1];
VARIABLE: i;
{
  C[0] = Cin;
  #for(i=0; i<size; i++)
  {
    O[i] = I0[i] (+) I1[i] (+) C[i];
    C[i+1] = I0[i]*I1[i] + I0[i]*C[i] + I1[i]*C[i];
  }
  Cout = C[size];
}"#;
        let m = parse(src).unwrap();
        assert_eq!(m.name, "ADDER");
        assert_eq!(m.parameters, vec!["size"]);
        assert_eq!(m.inputs.len(), 3);
        assert_eq!(m.outputs.len(), 2);
        assert_eq!(m.body.len(), 3);
        assert!(matches!(m.body[1], Stmt::For { .. }));
    }

    #[test]
    fn parses_sequential_equation_with_async() {
        let src = r#"
NAME: BIT;
INORDER: D, CLK, LOAD;
OUTORDER: Q;
{
  Q = (Q (+) D) @(~r CLK) ~a(0/(!LOAD * !D), 1/(!LOAD * D));
}"#;
        let m = parse(src).unwrap();
        let Stmt::Equation { rhs, .. } = &m.body[0] else {
            panic!("expected equation")
        };
        let Expr::Async(base, entries) = rhs else {
            panic!("expected async, got {rhs:?}")
        };
        assert_eq!(entries.len(), 2);
        assert!(matches!(**base, Expr::At(..)));
    }

    #[test]
    fn parses_aggregate_assignment() {
        let src = r#"
NAME: AND;
PARAMETER: size;
INORDER: I0[size];
OUTORDER: O;
VARIABLE: i;
{
  #for(i=0; i<size; i++)
    O *= I0[i];
}"#;
        let m = parse(src).unwrap();
        let Stmt::For { body, .. } = &m.body[0] else {
            panic!()
        };
        let Stmt::Equation { op, .. } = &**body else {
            panic!("expected equation")
        };
        assert_eq!(*op, AssignOp::AndAggregate);
    }

    #[test]
    fn parses_if_else_and_calls() {
        let src = r#"
NAME: TOP;
PARAMETER: kind, size;
INORDER: A[size];
OUTORDER: Z[size];
SUBFUNCTION: RIPPLE;
{
  #if (kind == 1) #RIPPLE(size, A, Z);
  #else
  {
    Z[0] = A[0];
  }
}"#;
        let m = parse(src).unwrap();
        let Stmt::If {
            else_branch,
            then_branch,
            ..
        } = &m.body[0]
        else {
            panic!()
        };
        assert!(matches!(**then_branch, Stmt::Call { .. }));
        assert!(else_branch.is_some());
    }

    #[test]
    fn precedence_and_over_or() {
        let src = "NAME: T; INORDER: A,B,C; OUTORDER: O; { O = A + B * C; }";
        let m = parse(src).unwrap();
        let Stmt::Equation { rhs, .. } = &m.body[0] else {
            panic!()
        };
        // A + (B*C)
        let Expr::Binary(BinOp::Or, _, r) = rhs else {
            panic!("expected OR at top: {rhs:?}")
        };
        assert!(matches!(**r, Expr::Binary(BinOp::And, ..)));
    }

    #[test]
    fn precedence_xor_over_and() {
        let src = "NAME: T; INORDER: A,B,C; OUTORDER: O; { O = A * B (+) C; }";
        let m = parse(src).unwrap();
        let Stmt::Equation { rhs, .. } = &m.body[0] else {
            panic!()
        };
        // A * (B (+) C)
        let Expr::Binary(BinOp::And, _, r) = rhs else {
            panic!("expected AND at top: {rhs:?}")
        };
        assert!(matches!(**r, Expr::Binary(BinOp::Xor, ..)));
    }

    #[test]
    fn clock_gating_with_active_low_latch() {
        let src = "NAME: T; INORDER: CLK, ENA; OUTORDER: CLKO; { CLKO = CLK@(~1 !ENA); }";
        let m = parse(src).unwrap();
        let Stmt::Equation { rhs, .. } = &m.body[0] else {
            panic!()
        };
        let Expr::At(_, clock) = rhs else {
            panic!("expected @: {rhs:?}")
        };
        assert!(matches!(**clock, Expr::Unary(UnaryOp::Low, _)));
    }

    #[test]
    fn tristate_and_wireor_and_delay() {
        let src = "NAME: T; INORDER: A,B,EN; OUTORDER: O, P, Q;
                   { O = A ~t EN; P = A ~w B; Q = A ~d 10.0; }";
        let m = parse(src).unwrap();
        assert_eq!(m.body.len(), 3);
        let Stmt::Equation { rhs, .. } = &m.body[2] else {
            panic!()
        };
        assert!(matches!(rhs, Expr::Binary(BinOp::Delay, ..)));
    }

    #[test]
    fn error_on_missing_name() {
        assert!(parse("INORDER: A; OUTORDER: B; { B = A; }").is_err());
    }

    #[test]
    fn error_reports_position() {
        let e = parse("NAME: T;\nINORDER: A;\nOUTORDER: B;\n{ B = ; }").unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn exponent_is_right_associative() {
        let src = "NAME: T; PARAMETER: n; OUTORDER: O[2**2**n]; { O[0] = 1; }";
        let m = parse(src).unwrap();
        let Expr::Binary(BinOp::Pow, _, r) = &m.outputs[0].dims[0] else {
            panic!()
        };
        assert!(matches!(**r, Expr::Binary(BinOp::Pow, ..)));
    }

    fn module_computing(expr: &str) -> String {
        format!("NAME: T; INORDER: A; OUTORDER: O; {{ O = {expr}; }}")
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let deep = 100_000;
        let cases = [
            format!("{}A{}", "(".repeat(deep), ")".repeat(deep)),
            format!("{}A", "!".repeat(deep)),
            vec!["A"; deep].join(" + "),
            vec!["A"; deep].join(" ** "),
        ];
        for expr in cases {
            let e = parse(&module_computing(&expr)).unwrap_err();
            assert!(e.message.contains("nesting deeper than"), "{e}");
        }
        let blocks = format!(
            "NAME: T; INORDER: A; OUTORDER: O; {}O = A;{}",
            "{".repeat(deep),
            "}".repeat(deep)
        );
        assert!(parse(&blocks).unwrap_err().message.contains("nesting"));
    }

    #[test]
    fn nesting_within_the_bound_parses() {
        let parens = MAX_NESTING / 4;
        let expr = format!("{}A{}", "(".repeat(parens), ")".repeat(parens));
        assert!(parse(&module_computing(&expr)).is_ok());
        let chain = vec!["A"; MAX_NESTING / 2].join(" + ");
        assert!(parse(&module_computing(&chain)).is_ok());
        // A failed look-ahead inside an index backtracks without leaking
        // nesting levels into the rest of the parse.
        let src = format!("NAME: T; INORDER: A[2]; OUTORDER: O; {{ O = A[0] + {chain}; }}");
        assert!(parse(&src).is_ok());
    }
}
