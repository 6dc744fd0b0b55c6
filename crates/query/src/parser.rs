//! Recursive-descent parser for the query language.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement   := select | create_view
//! create_view := CREATE VIEW ident AS select_join
//! select_join := SELECT * FROM ident JOIN ident ON ( ident,* ) [where]
//! select      := SELECT items FROM ident [where] [GROUP BY ident,*]
//! items       := * | item (, item)*
//! item        := ident | AGG ( ident | * )
//! where       := WHERE pred (AND pred)*
//! pred        := ident IN [ num , num ]
//!              | ident BETWEEN num AND num
//!              | ident (<=|>=|<|>|=) num
//!              | num (<=|<) ident (<=|<) num        -- not supported; use AND
//! ```

use crate::ast::{AggFunc, Query, RangePred, SelectItem, Statement, ViewDef};
use crate::lexer::{tokenize, Token};
use orv_types::{Error, Result};

/// Parse one statement.
pub fn parse_statement(src: &str) -> Result<Statement> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = if p.peek_keyword("CREATE") {
        Statement::CreateView(p.create_view()?)
    } else {
        Statement::Select(p.select()?)
    };
    if p.pos != p.tokens.len() {
        return Err(Error::Parse(format!(
            "trailing input after statement: {}",
            p.tokens[p.pos]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected keyword `{kw}`, found {}",
                self.peek()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        let t = self.next()?;
        if &t == tok {
            Ok(())
        } else {
            Err(Error::Parse(format!("expected {tok}, found {t}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(Error::Parse(format!("expected identifier, found {other}"))),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.next()? {
            Token::Number(n) => Ok(n),
            other => Err(Error::Parse(format!("expected number, found {other}"))),
        }
    }

    fn create_view(&mut self) -> Result<ViewDef> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("VIEW")?;
        let name = self.ident()?;
        self.expect_keyword("AS")?;
        let query = self.select()?;
        Ok(ViewDef { name, query })
    }

    fn select(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let select = self.select_items()?;
        self.expect_keyword("FROM")?;
        let from = self.ident()?;
        let join = if self.eat_keyword("JOIN") {
            let table = self.ident()?;
            self.expect_keyword("ON")?;
            self.expect(&Token::LParen)?;
            let mut on = vec![self.ident()?];
            while matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                on.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
            Some(crate::ast::JoinClause { table, on })
        } else {
            None
        };
        let predicates = self.where_clause()?;
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.ident()?);
            while matches!(self.peek(), Some(Token::Comma)) {
                self.pos += 1;
                group_by.push(self.ident()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let col = self.ident()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push((col, desc));
                if matches!(self.peek(), Some(Token::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            let n = self.number()?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(Error::Parse(format!(
                    "LIMIT must be a non-negative integer, got {n}"
                )));
            }
            Some(n as usize)
        } else {
            None
        };
        Ok(Query {
            select,
            from,
            join,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_items(&mut self) -> Result<Vec<SelectItem>> {
        if matches!(self.peek(), Some(Token::Star)) {
            self.pos += 1;
            return Ok(vec![SelectItem::All]);
        }
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), Some(Token::Comma)) {
            self.pos += 1;
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let name = self.ident()?;
        let agg = match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        };
        match (agg, self.peek()) {
            (Some(f), Some(Token::LParen)) => {
                self.pos += 1;
                let arg = if matches!(self.peek(), Some(Token::Star)) {
                    self.pos += 1;
                    None
                } else {
                    Some(self.ident()?)
                };
                self.expect(&Token::RParen)?;
                if arg.is_none() && f != AggFunc::Count {
                    return Err(Error::Parse(format!(
                        "{}(*) is only valid for COUNT",
                        f.name()
                    )));
                }
                Ok(SelectItem::Aggregate(f, arg))
            }
            _ => Ok(SelectItem::Column(name)),
        }
    }

    fn where_clause(&mut self) -> Result<Vec<RangePred>> {
        let mut preds = Vec::new();
        if !self.eat_keyword("WHERE") {
            return Ok(preds);
        }
        preds.push(self.predicate()?);
        while self.eat_keyword("AND") {
            preds.push(self.predicate()?);
        }
        Ok(preds)
    }

    fn predicate(&mut self) -> Result<RangePred> {
        let attr = self.ident()?;
        if self.eat_keyword("IN") {
            self.expect(&Token::LBracket)?;
            let lo = self.number()?;
            self.expect(&Token::Comma)?;
            let hi = self.number()?;
            self.expect(&Token::RBracket)?;
            return Ok(RangePred::between(attr, lo, hi));
        }
        if self.eat_keyword("BETWEEN") {
            let lo = self.number()?;
            self.expect_keyword("AND")?;
            let hi = self.number()?;
            return Ok(RangePred::between(attr, lo, hi));
        }
        let op = self.next()?;
        let n = self.number()?;
        // Ranges are closed, so a strict bound is the neighbouring
        // representable value.
        Ok(match op {
            Token::Le => RangePred::between(attr, f64::NEG_INFINITY, n),
            Token::Lt => RangePred::between(attr, f64::NEG_INFINITY, n.next_down()),
            Token::Ge => RangePred::between(attr, n, f64::INFINITY),
            Token::Gt => RangePred::between(attr, n.next_up(), f64::INFINITY),
            Token::Eq => RangePred::between(attr, n, n),
            other => {
                return Err(Error::Parse(format!(
                    "expected comparison operator after `{attr}`, found {other}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_range_query() {
        // "SELECT * FROM T1 WHERE x ∈ [0,256], y ∈ [0,512]"
        let s = parse_statement("SELECT * FROM t1 WHERE x IN [0, 256] AND y IN [0, 512]").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.select, vec![SelectItem::All]);
        assert_eq!(q.from, "t1");
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.predicates[0], RangePred::between("x", 0.0, 256.0));
        assert!(q.group_by.is_empty());
    }

    #[test]
    fn parses_view_definition() {
        let s = parse_statement(
            "CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y) WHERE x IN [0, 256]",
        )
        .unwrap();
        let Statement::CreateView(v) = s else {
            panic!()
        };
        assert_eq!(v.name, "v1");
        assert_eq!(v.query.from, "t1");
        let join = v.query.join.as_ref().unwrap();
        assert_eq!(join.table, "t2");
        assert_eq!(join.on, vec!["x", "y"]);
        assert_eq!(v.query.predicates.len(), 1);
        assert!(v.query.is_plain_join());
    }

    #[test]
    fn parses_aggregation_view_and_direct_join_query() {
        // DDS layering: a view defined by an aggregation over another view.
        let s =
            parse_statement("CREATE VIEW prof AS SELECT z, AVG(wp) FROM v1 GROUP BY z").unwrap();
        let Statement::CreateView(v) = s else {
            panic!()
        };
        assert_eq!(v.name, "prof");
        assert!(v.query.join.is_none());
        assert!(!v.query.is_plain_join());
        assert_eq!(v.query.group_by, vec!["z"]);
        // A join directly in a query, without a view.
        let s = parse_statement("SELECT * FROM a JOIN b ON (x) WHERE x <= 4").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert!(q.is_plain_join());
        assert_eq!(q.join.unwrap().on, vec!["x"]);
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let s = parse_statement("SELECT z, AVG(wp), COUNT(*) FROM v1 GROUP BY z").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.select.len(), 3);
        assert_eq!(q.select[0], SelectItem::Column("z".into()));
        assert_eq!(
            q.select[1],
            SelectItem::Aggregate(AggFunc::Avg, Some("wp".into()))
        );
        assert_eq!(q.select[2], SelectItem::Aggregate(AggFunc::Count, None));
        assert_eq!(q.group_by, vec!["z"]);
    }

    #[test]
    fn comparison_predicates_normalize_to_ranges() {
        let s = parse_statement("SELECT wp FROM t WHERE wp >= 0.5 AND x <= 10 AND y = 3").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(
            q.predicates[0],
            RangePred::between("wp", 0.5, f64::INFINITY)
        );
        assert_eq!(
            q.predicates[1],
            RangePred::between("x", f64::NEG_INFINITY, 10.0)
        );
        assert_eq!(q.predicates[2], RangePred::between("y", 3.0, 3.0));
    }

    #[test]
    fn strict_comparisons_exclude_their_bound() {
        let pred = |sql: &str| {
            let Statement::Select(q) = parse_statement(sql).unwrap() else {
                panic!()
            };
            q.predicates[0].clone()
        };
        let inf = f64::INFINITY;
        assert_eq!(
            pred("SELECT * FROM t WHERE x >= 30"),
            RangePred::between("x", 30.0, inf)
        );
        assert_eq!(
            pred("SELECT * FROM t WHERE x <= 30"),
            RangePred::between("x", -inf, 30.0)
        );
        assert_eq!(
            pred("SELECT * FROM t WHERE x = 30"),
            RangePred::between("x", 30.0, 30.0)
        );
        let gt = pred("SELECT * FROM t WHERE x > 30");
        assert_eq!((gt.lo, gt.hi), (30.0f64.next_up(), inf));
        assert!(gt.lo > 30.0 && gt.lo < 30.000001);
        let lt = pred("SELECT * FROM t WHERE x < 1");
        assert_eq!((lt.lo, lt.hi), (-inf, 1.0f64.next_down()));
        assert!(lt.hi < 1.0 && lt.hi > 0.999999);
        // Zero's neighbours are the subnormals, not zero itself.
        assert!(pred("SELECT * FROM t WHERE x > 0").lo > 0.0);
        assert!(pred("SELECT * FROM t WHERE x < 0").hi < 0.0);
    }

    #[test]
    fn between_syntax() {
        let s = parse_statement("SELECT * FROM t WHERE x BETWEEN 1 AND 5").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.predicates[0], RangePred::between("x", 1.0, 5.0));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse_statement("select * from t where x in [0, 1]").is_ok());
        assert!(parse_statement("Create View v As Select * From a Join b On (x)").is_ok());
    }

    #[test]
    fn rejects_malformed_statements() {
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE").is_err());
        assert!(parse_statement("SELECT * FROM t extra").is_err());
        assert!(parse_statement("CREATE VIEW v AS SELECT * FROM a JOIN b").is_err());
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE x ! 3").is_err());
    }

    #[test]
    fn agg_names_can_still_be_columns() {
        // `count` without parens is a column reference.
        let s = parse_statement("SELECT count FROM t").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.select[0], SelectItem::Column("count".into()));
    }
}
