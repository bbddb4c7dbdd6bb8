CREATE TABLE "User" (
    user_id INTEGER PRIMARY KEY,
    user_name VARCHAR(255),
    user_title VARCHAR(255),
    user_body INTEGER,
    user_email VARCHAR(255),
    user_status VARCHAR(255),
    user_price INTEGER,
    user_quantity VARCHAR(255)
);
CREATE TABLE Post (
    post_id INTEGER PRIMARY KEY,
    post_name VARCHAR(255),
    post_title VARCHAR(255),
    post_body INTEGER,
    post_email VARCHAR(255),
    post_status VARCHAR(255),
    post_price INTEGER,
    post_quantity VARCHAR(255)
);
CREATE TABLE Comment (
    comment_id INTEGER PRIMARY KEY,
    comment_name VARCHAR(255),
    comment_title VARCHAR(255),
    comment_body INTEGER,
    comment_email VARCHAR(255),
    comment_status VARCHAR(255),
    comment_price INTEGER,
    comment_quantity VARCHAR(255)
);
CREATE TABLE Photo (
    photo_id INTEGER PRIMARY KEY,
    photo_name VARCHAR(255),
    photo_title VARCHAR(255),
    photo_body INTEGER,
    photo_email VARCHAR(255),
    photo_status VARCHAR(255),
    photo_price INTEGER
);
CREATE TABLE Album (
    album_id INTEGER PRIMARY KEY,
    album_name VARCHAR(255),
    album_title VARCHAR(255),
    album_body INTEGER,
    album_email VARCHAR(255),
    album_status VARCHAR(255),
    album_price INTEGER
);
CREATE TABLE "Order" (
    order_id INTEGER PRIMARY KEY,
    order_name VARCHAR(255),
    order_title VARCHAR(255),
    order_body INTEGER,
    order_email VARCHAR(255),
    order_status VARCHAR(255),
    order_price INTEGER
);
CREATE TABLE Product (
    product_id INTEGER PRIMARY KEY,
    product_name VARCHAR(255),
    product_title VARCHAR(255),
    product_body INTEGER,
    product_email VARCHAR(255),
    product_status VARCHAR(255),
    product_price INTEGER
);
