open Objmodel

(* [pages.(oid).(page)] is the cached version, or [absent]. Oids are dense
   catalog indices, so both levels are plain arrays, grown on demand. *)
type t = { node : int; mutable pages : int array array }

let absent = -1

let create ~node = { node; pages = [||] }

let node t = t.node

(* A copy of [a] with at least [n] slots, the new ones set to [fill]. *)
let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The object's row, long enough to hold [page]. *)
let row t oid ~page =
  let o = Oid.to_int oid in
  if o >= Array.length t.pages then t.pages <- grow t.pages (o + 1) [||];
  let r = t.pages.(o) in
  if page < Array.length r then r
  else begin
    let r = grow r (page + 1) absent in
    t.pages.(o) <- r;
    r
  end

let version t oid ~page =
  let o = Oid.to_int oid in
  if o >= Array.length t.pages then absent
  else
    let r = t.pages.(o) in
    if page >= Array.length r then absent else r.(page)

let receive t oid ~page ~version:v =
  let r = row t oid ~page in
  if v > r.(page) then r.(page) <- v

let write t oid ~page ~new_version =
  let r = row t oid ~page in
  let prev = r.(page) in
  r.(page) <- new_version;
  prev

let restore t oid ~page ~version:v =
  if v <> absent then (row t oid ~page).(page) <- v
  else if version t oid ~page <> absent then t.pages.(Oid.to_int oid).(page) <- absent

let is_current t oid ~page ~newest = version t oid ~page >= newest

let cached_pages t oid =
  let o = Oid.to_int oid in
  if o >= Array.length t.pages then []
  else begin
    let r = t.pages.(o) in
    let acc = ref [] in
    for p = Array.length r - 1 downto 0 do
      if r.(p) <> absent then acc := (p, r.(p)) :: !acc
    done;
    !acc
  end

let cached_objects t =
  let acc = ref [] in
  for o = Array.length t.pages - 1 downto 0 do
    if Array.exists (fun v -> v <> absent) t.pages.(o) then acc := Oid.of_int o :: !acc
  done;
  !acc

let dump t =
  (* Ascending oid, ascending page: the dump is diffed across runs (and hash
     seeds) by determinism checks. *)
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "page store (node %d):\n" t.node);
  List.iter
    (fun oid ->
      Buffer.add_string b (Format.asprintf "  %a:" Oid.pp oid);
      List.iter
        (fun (p, v) -> Buffer.add_string b (Printf.sprintf " %d@v%d" p v))
        (cached_pages t oid);
      Buffer.add_char b '\n')
    (cached_objects t);
  Buffer.contents b
