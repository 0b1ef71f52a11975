type event =
  | Complete of {
      cat : string;
      name : string;
      pid : int;
      tid : int;
      ts : int;
      dur : int;
      args : (string * Json.t) list;
    }
  | Counter of { name : string; pid : int; ts : int; value : int }

type sink = {
  buf : event array;  (** ring buffer *)
  s_sample : int;
  mutable next : int;  (** write position *)
  mutable total : int;  (** events ever recorded *)
}

type t = Disabled | Ring of sink

let disabled = Disabled

let dummy = Counter { name = ""; pid = 0; ts = 0; value = 0 }

let create ?(capacity = 65536) ?(sample = 1) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if sample <= 0 then invalid_arg "Trace.create: sample must be positive";
  Ring { buf = Array.make capacity dummy; s_sample = sample; next = 0; total = 0 }

let enabled = function Disabled -> false | Ring _ -> true

let sample = function Disabled -> 1 | Ring s -> s.s_sample

let hit t id =
  match t with Disabled -> false | Ring s -> id mod s.s_sample = 0

let push t ev =
  match t with
  | Disabled -> ()
  | Ring s ->
    s.buf.(s.next) <- ev;
    s.next <- (s.next + 1) mod Array.length s.buf;
    s.total <- s.total + 1

let span t ~cat ~name ~pid ~tid ~ts ~dur ?(args = []) () =
  match t with
  | Disabled -> ()
  | Ring _ -> push t (Complete { cat; name; pid; tid; ts; dur; args })

let counter t ~name ~pid ~ts ~value =
  match t with
  | Disabled -> ()
  | Ring _ -> push t (Counter { name; pid; ts; value })

let recorded = function Disabled -> 0 | Ring s -> s.total

let dropped = function
  | Disabled -> 0
  | Ring s -> max 0 (s.total - Array.length s.buf)

let events t =
  match t with
  | Disabled -> []
  | Ring s ->
    let cap = Array.length s.buf in
    let n = min s.total cap in
    let first = if s.total <= cap then 0 else s.next in
    List.init n (fun i -> s.buf.((first + i) mod cap))

let event_to_json = function
  | Complete { cat; name; pid; tid; ts; dur; args } ->
    Json.obj
      ([
         ("name", Json.String name);
         ("cat", Json.String cat);
         ("ph", Json.String "X");
         ("pid", Json.Int pid);
         ("tid", Json.Int tid);
         ("ts", Json.Int ts);
         ("dur", Json.Int (max 1 dur));
       ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  | Counter { name; pid; ts; value } ->
    Json.obj
      [
        ("name", Json.String name);
        ("ph", Json.String "C");
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("ts", Json.Int ts);
        ("args", Json.Obj [ ("value", Json.Int value) ]);
      ]

let to_json t =
  Json.obj
    [
      ("traceEvents", Json.list event_to_json (events t));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("timeUnit", Json.String "1 cycle = 1 us");
            ("sample", Json.Int (sample t));
            ("recorded", Json.Int (recorded t));
            ("dropped", Json.Int (dropped t));
          ] );
    ]

let write_file t path = Json.to_file path (to_json t)
