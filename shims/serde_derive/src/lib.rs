//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros
//! (no `syn`/`quote` — the token stream is parsed directly) supporting
//! exactly the shapes this workspace uses:
//!
//! - structs with named fields, including `#[serde(flatten)]` fields;
//! - unit-only enums (serialized as the variant-name string);
//! - internally tagged enums (`#[serde(tag = "...")]`) with named-field
//!   or unit variants, honoring `rename_all = "snake_case"`.
//!
//! Generated code targets the shim `serde::{Serialize, Deserialize,
//! Content}` traits. Unsupported shapes (generics, tuple structs/
//! variants) panic at expansion time with a clear message.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Collects a token stream, transparently expanding `Delimiter::None`
/// groups. `macro_rules!` fragment captures (`$vis:vis`, `$ty:ty`, ...)
/// arrive wrapped in such invisible groups, so without this a derive on a
/// macro-generated struct sees `Group(pub)` where it expects `Ident(pub)`.
fn flatten_stream(input: TokenStream) -> Vec<TokenTree> {
    let mut out = Vec::new();
    for tok in input {
        match tok {
            TokenTree::Group(g) if g.delimiter() == Delimiter::None => {
                out.extend(flatten_stream(g.stream()));
            }
            other => out.push(other),
        }
    }
    out
}

struct Field {
    name: String,
    flatten: bool,
}

struct Variant {
    name: String,
    /// `None` for unit variants, `Some(fields)` for named-field variants.
    fields: Option<Vec<Field>>,
}

enum Shape {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    tag: Option<String>,
    rename_all_snake: bool,
    shape: Shape,
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Extracts `tag = "..."` / `rename_all = "..."` / `flatten` markers from
/// the token stream inside one `#[serde(...)]` group.
fn parse_serde_attr(
    tokens: TokenStream,
    tag: &mut Option<String>,
    snake: &mut bool,
    flatten: &mut bool,
) {
    let toks: Vec<TokenTree> = flatten_stream(tokens);
    let mut i = 0;
    while i < toks.len() {
        if let TokenTree::Ident(id) = &toks[i] {
            let key = id.to_string();
            if key == "flatten" {
                *flatten = true;
                i += 1;
            } else {
                match toks.get(i + 2) {
                    Some(TokenTree::Literal(lit)) => {
                        let value = lit.to_string().trim_matches('"').to_string();
                        match key.as_str() {
                            "tag" => *tag = Some(value),
                            "rename_all" => *snake = value == "snake_case",
                            other => panic!("serde shim: unsupported attribute `{other}`"),
                        }
                        i += 3;
                    }
                    _ => panic!("serde shim: malformed #[serde(...)] attribute"),
                }
            }
        } else {
            // Separator commas.
            i += 1;
        }
    }
}

/// Skips attributes at `toks[*i]`, collecting `#[serde(...)]` contents.
fn skip_attrs(
    toks: &[TokenTree],
    i: &mut usize,
    tag: &mut Option<String>,
    snake: &mut bool,
    flatten: &mut bool,
) {
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(*i) {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    if let Some(TokenTree::Ident(id)) = inner.first() {
                        if id.to_string() == "serde" {
                            if let Some(TokenTree::Group(args)) = inner.get(1) {
                                parse_serde_attr(args.stream(), tag, snake, flatten);
                            }
                        }
                    }
                    *i += 1;
                }
            }
            _ => break,
        }
    }
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Parses the named fields inside a brace group.
fn parse_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = flatten_stream(stream);
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut flatten = false;
        skip_attrs(&toks, &mut i, &mut None, &mut false, &mut flatten);
        if i >= toks.len() {
            break;
        }
        skip_vis(&toks, &mut i);
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim: expected field name, found `{other}`"),
        };
        i += 1;
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim: expected `:` after field `{name}`, found `{other}`"),
        }
        // Consume the type: everything up to a top-level comma. `<...>`
        // nesting must be tracked because commas appear inside generics.
        let mut angle_depth = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, flatten });
    }
    fields
}

/// Parses the variants inside an enum body.
fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = flatten_stream(stream);
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i, &mut None, &mut false, &mut false);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim: expected variant name, found `{other}`"),
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_fields(g.stream());
                i += 1;
                Some(f)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("serde shim: tuple variant `{name}` is unsupported")
            }
            _ => None,
        };
        // Skip an explicit discriminant (`= expr`) and the trailing comma.
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = flatten_stream(input);
    let mut i = 0;
    let mut tag = None;
    let mut snake = false;
    skip_attrs(&toks, &mut i, &mut tag, &mut snake, &mut false);
    skip_vis(&toks, &mut i);
    let kind = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim: expected `struct` or `enum`, found `{other}`"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim: expected type name, found `{other}`"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim: generic type `{name}` is unsupported");
        }
    }
    let body = match toks.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other => panic!("serde shim: expected braced body for `{name}`, found `{other:?}`"),
    };
    let shape = match kind.as_str() {
        "struct" => Shape::Struct(parse_fields(body)),
        "enum" => Shape::Enum(parse_variants(body)),
        other => panic!("serde shim: unsupported item kind `{other}`"),
    };
    Item {
        name,
        tag,
        rename_all_snake: snake,
        shape,
    }
}

fn variant_wire_name(item: &Item, variant: &str) -> String {
    if item.rename_all_snake {
        snake_case(variant)
    } else {
        variant.to_string()
    }
}

/// `#[derive(Serialize)]` — lowers the type into a `serde::Content` tree.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut code = String::from("let mut m: Vec<(String, serde::Content)> = Vec::new();\n");
            for f in fields {
                if f.flatten {
                    code.push_str(&format!(
                        "match serde::Serialize::serialize_content(&self.{fname}) {{\n\
                         serde::Content::Map(inner) => m.extend(inner),\n\
                         other => m.push((\"{fname}\".to_string(), other)),\n\
                         }}\n",
                        fname = f.name
                    ));
                } else {
                    code.push_str(&format!(
                        "m.push((\"{fname}\".to_string(), serde::Serialize::serialize_content(&self.{fname})));\n",
                        fname = f.name
                    ));
                }
            }
            code.push_str("serde::Content::Map(m)");
            code
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let wire = variant_wire_name(&item, &v.name);
                match (&v.fields, &item.tag) {
                    (None, None) => {
                        arms.push_str(&format!(
                            "{name}::{v} => serde::Content::Str(\"{wire}\".to_string()),\n",
                            v = v.name
                        ));
                    }
                    (None, Some(tag)) => {
                        arms.push_str(&format!(
                            "{name}::{v} => serde::Content::Map(vec![(\"{tag}\".to_string(), serde::Content::Str(\"{wire}\".to_string()))]),\n",
                            v = v.name
                        ));
                    }
                    (Some(fields), Some(tag)) => {
                        let bindings = fields
                            .iter()
                            .map(|f| f.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ");
                        let mut pushes = String::new();
                        for f in fields {
                            pushes.push_str(&format!(
                                "m.push((\"{fname}\".to_string(), serde::Serialize::serialize_content({fname})));\n",
                                fname = f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{v} {{ {bindings} }} => {{\n\
                             let mut m: Vec<(String, serde::Content)> = vec![(\"{tag}\".to_string(), serde::Content::Str(\"{wire}\".to_string()))];\n\
                             {pushes}serde::Content::Map(m)\n\
                             }}\n",
                            v = v.name
                        ));
                    }
                    (Some(fields), None) => {
                        // Externally tagged: {"Variant": {fields...}}.
                        let bindings = fields
                            .iter()
                            .map(|f| f.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ");
                        let mut pushes = String::new();
                        for f in fields {
                            pushes.push_str(&format!(
                                "m.push((\"{fname}\".to_string(), serde::Serialize::serialize_content({fname})));\n",
                                fname = f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{v} {{ {bindings} }} => {{\n\
                             let mut m: Vec<(String, serde::Content)> = Vec::new();\n\
                             {pushes}serde::Content::Map(vec![(\"{wire}\".to_string(), serde::Content::Map(m))])\n\
                             }}\n",
                            v = v.name
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
         fn serialize_content(&self) -> serde::Content {{\n{body}\n}}\n\
         }}"
    )
    .parse()
    .expect("serde shim: generated Serialize impl failed to parse")
}

/// `#[derive(Deserialize)]` — lifts the type back out of a `Content` tree.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let field_get = |fname: &str| {
        format!(
            "serde::Deserialize::deserialize_content(\n\
             m.iter().find(|kv| kv.0 == \"{fname}\").map(|kv| &kv.1)\n\
             .ok_or_else(|| \"missing field `{fname}` in {name}\".to_string())?,\n\
             )?"
        )
    };
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut inits = String::new();
            for f in fields {
                if f.flatten {
                    inits.push_str(&format!(
                        "{fname}: serde::Deserialize::deserialize_content(content)?,\n",
                        fname = f.name
                    ));
                } else {
                    inits.push_str(&format!(
                        "{fname}: {get},\n",
                        fname = f.name,
                        get = field_get(&f.name)
                    ));
                }
            }
            format!(
                "let m = match content {{\n\
                 serde::Content::Map(m) => m,\n\
                 other => return Err(format!(\"expected map for {name}, found {{other:?}}\")),\n\
                 }};\n\
                 let _ = &m;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Shape::Enum(variants) => {
            if let Some(tag) = &item.tag {
                let mut arms = String::new();
                for v in variants {
                    let wire = variant_wire_name(&item, &v.name);
                    match &v.fields {
                        None => {
                            arms.push_str(&format!("\"{wire}\" => Ok({name}::{v}),\n", v = v.name))
                        }
                        Some(fields) => {
                            let mut inits = String::new();
                            for f in fields {
                                inits.push_str(&format!(
                                    "{fname}: {get},\n",
                                    fname = f.name,
                                    get = field_get(&f.name)
                                ));
                            }
                            arms.push_str(&format!(
                                "\"{wire}\" => Ok({name}::{v} {{\n{inits}}}),\n",
                                v = v.name
                            ));
                        }
                    }
                }
                format!(
                    "let m = match content {{\n\
                     serde::Content::Map(m) => m,\n\
                     other => return Err(format!(\"expected map for {name}, found {{other:?}}\")),\n\
                     }};\n\
                     let tag = match m.iter().find(|kv| kv.0 == \"{tag}\").map(|kv| &kv.1) {{\n\
                     Some(serde::Content::Str(s)) => s.as_str(),\n\
                     Some(other) => return Err(format!(\"tag `{tag}` is not a string: {{other:?}}\")),\n\
                     None => return Err(\"missing tag `{tag}` for {name}\".to_string()),\n\
                     }};\n\
                     match tag {{\n{arms}\
                     other => Err(format!(\"unknown {name} variant `{{other}}`\")),\n\
                     }}"
                )
            } else {
                let mut arms = String::new();
                for v in variants {
                    if v.fields.is_some() {
                        panic!(
                            "serde shim: Deserialize for untagged data enum `{name}` is unsupported"
                        );
                    }
                    let wire = variant_wire_name(&item, &v.name);
                    arms.push_str(&format!("\"{wire}\" => Ok({name}::{v}),\n", v = v.name));
                }
                format!(
                    "let s = match content {{\n\
                     serde::Content::Str(s) => s.as_str(),\n\
                     other => return Err(format!(\"expected string for {name}, found {{other:?}}\")),\n\
                     }};\n\
                     match s {{\n{arms}\
                     other => Err(format!(\"unknown {name} variant `{{other}}`\")),\n\
                     }}"
                )
            }
        }
    };
    format!(
        "impl serde::Deserialize for {name} {{\n\
         fn deserialize_content(content: &serde::Content) -> Result<Self, String> {{\n{body}\n}}\n\
         }}"
    )
    .parse()
    .expect("serde shim: generated Deserialize impl failed to parse")
}
